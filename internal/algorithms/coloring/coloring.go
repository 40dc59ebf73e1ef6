// Package coloring implements greedy distributed vertex coloring, the
// canonical "conflict" algorithm behind the conflict managers of
// Gradinariu and Tixeuil (ICDCS 2007) — the paper's citation [14] and the
// origin of the §4 transformer trick.
//
// Every process p holds a color in [0, deg(p)+1). A process is enabled iff
// some neighbor has the same color, and recolors to the smallest color not
// used by any neighbor (which exists in its own palette since it has
// deg(p) neighbors). The legitimate configurations are the proper
// colorings, which coincide with the terminal ones.
//
// The algorithm walks the whole stabilization hierarchy as the scheduler
// varies, making it the library's spectrum specimen (experiment E15):
//
//   - central scheduler: every move eliminates all conflicts at the moving
//     process and touches no other edge, so the number of conflicting
//     edges strictly decreases — deterministically SELF-stabilizing;
//   - distributed scheduler: symmetric neighbors recoloring simultaneously
//     can chase each other forever — only weak-stabilizing;
//   - synchronous scheduler: on color-symmetric configurations (e.g. a
//     uniformly colored even ring) the livelock is forced — not even
//     weak-stabilizing;
//   - transformed (§4): probabilistically self-stabilizing everywhere.
package coloring

import (
	"fmt"
	"math/bits"

	"weakstab/internal/graph"
	"weakstab/internal/protocol"
)

// ActionRecolor is the id of the unique action.
const ActionRecolor = 1

// Algorithm is greedy coloring on an arbitrary connected graph.
type Algorithm struct {
	g *graph.Graph
}

var (
	_ protocol.Algorithm       = (*Algorithm)(nil)
	_ protocol.Deterministic   = (*Algorithm)(nil)
	_ protocol.LegitEnumerator = (*Algorithm)(nil)
)

// New returns the coloring algorithm on g (at least 2 nodes).
func New(g *graph.Graph) (*Algorithm, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("coloring: need at least 2 processes, got %d", g.N())
	}
	return &Algorithm{g: g}, nil
}

// Name implements protocol.Algorithm.
func (a *Algorithm) Name() string { return fmt.Sprintf("coloring(%s)", a.g.Name()) }

// Graph implements protocol.Algorithm.
func (a *Algorithm) Graph() *graph.Graph { return a.g }

// StateCount implements protocol.Algorithm: the palette of p is
// [0, deg(p)+1), always large enough for a free color.
func (a *Algorithm) StateCount(p int) int { return a.g.Degree(p) + 1 }

// Conflicted reports whether p shares its color with some neighbor.
func (a *Algorithm) Conflicted(cfg protocol.Configuration, p int) bool {
	for i := 0; i < a.g.Degree(p); i++ {
		if cfg[a.g.Neighbor(p, i)] == cfg[p] {
			return true
		}
	}
	return false
}

// EnabledAction implements protocol.Algorithm.
func (a *Algorithm) EnabledAction(cfg protocol.Configuration, p int) int {
	if a.Conflicted(cfg, p) {
		return ActionRecolor
	}
	return protocol.Disabled
}

// Outcomes implements protocol.Algorithm.
func (a *Algorithm) Outcomes(cfg protocol.Configuration, p, action int) []protocol.Outcome {
	return protocol.Det(a.DeterministicExecute(cfg, p, action))
}

// DeterministicExecute implements protocol.Deterministic: the smallest
// color in p's palette unused by its neighbors. It marks the neighbors'
// colors in a fixed-size stack bitmap, one block of the palette per pass,
// so it allocates nothing whatever the degree; a second pass happens only
// when the neighbors use every color of the first block.
func (a *Algorithm) DeterministicExecute(cfg protocol.Configuration, p, _ int) int {
	const block = 512
	deg := a.g.Degree(p)
	for lo := 0; lo <= deg; lo += block {
		var used [block / 64]uint64
		for i := 0; i < deg; i++ {
			if c := cfg[a.g.Neighbor(p, i)] - lo; c >= 0 && c < block {
				used[c/64] |= 1 << (c % 64)
			}
		}
		for w, u := range used {
			if u != ^uint64(0) {
				return lo + 64*w + bits.TrailingZeros64(^u)
			}
		}
	}
	// Unreachable: deg(p) neighbors cannot cover deg(p)+1 colors.
	return cfg[p]
}

// ActionName implements protocol.Algorithm.
func (a *Algorithm) ActionName(int) string { return "recolor" }

// EnumerateLegitimate implements protocol.LegitEnumerator: the proper
// colorings, generated directly by backtracking instead of scanning the
// Π(deg(p)+1) index range. Colors are assigned in process order; color c
// at process p is extended only when no earlier-assigned neighbor q < p
// already holds c, so every yielded configuration is a proper coloring and
// every proper coloring is yielded exactly once. The work is proportional
// to the partial colorings explored (within a degree factor), not to the
// full configuration space, and the first yield — the lexicographically
// smallest proper coloring — falls out greedily, which is how large
// netsim instances obtain a legitimate start in O(n) on bounded-degree
// graphs. The yielded slice is reused between calls.
func (a *Algorithm) EnumerateLegitimate(yield func(protocol.Configuration) bool) {
	n := a.g.N()
	cfg := make(protocol.Configuration, n)
	// Iterative backtracking: processes [0, p) hold a proper partial
	// coloring and cfg[p] is the next color to try at p.
	for p := 0; p >= 0; {
		if p == n {
			if !yield(cfg) {
				return
			}
		} else if c := a.freeFrom(cfg, p, cfg[p]); c <= a.g.Degree(p) {
			cfg[p] = c
			if p++; p < n {
				cfg[p] = 0
			}
			continue
		}
		// Backtrack: p-1 moves on to its next color.
		if p--; p >= 0 {
			cfg[p]++
		}
	}
}

// freeFrom returns the smallest color c >= from that no neighbor q < p
// holds in cfg, or deg(p)+1 when the palette has none left.
func (a *Algorithm) freeFrom(cfg protocol.Configuration, p, from int) int {
	c := from
next:
	for ; c <= a.g.Degree(p); c++ {
		for i := 0; i < a.g.Degree(p); i++ {
			if q := a.g.Neighbor(p, i); q < p && cfg[q] == c {
				continue next
			}
		}
		break
	}
	return c
}

// Legitimate implements protocol.Algorithm: a proper coloring.
func (a *Algorithm) Legitimate(cfg protocol.Configuration) bool {
	for p := 0; p < a.g.N(); p++ {
		if a.Conflicted(cfg, p) {
			return false
		}
	}
	return true
}
