// Package dijkstra implements Dijkstra's classical K-state self-stabilizing
// token ring (CACM 1974) as the deterministic baseline for the quantitative
// study (experiment E12).
//
// Unlike the paper's Algorithm 1, the ring is NOT anonymous: process 0 is a
// distinguished root, which is exactly the extra assumption that circumvents
// the impossibility of deterministic self-stabilizing token circulation on
// anonymous rings (Herman 1990, via Angluin's symmetry argument). With
// K >= N states per process the protocol is self-stabilizing under the
// central and distributed schedulers:
//
//	root:   S_0 = S_{N-1}  → S_0 ← (S_0 + 1) mod K
//	other:  S_i ≠ S_{i-1}  → S_i ← S_{i-1}
//
// A process is privileged (holds the token) iff its guard is enabled; the
// legitimate configurations have exactly one privileged process.
package dijkstra

import (
	"fmt"

	"weakstab/internal/graph"
	"weakstab/internal/protocol"
)

// ActionMove is the id of the unique action of each process.
const ActionMove = 1

// Algorithm is Dijkstra's K-state token ring with root process 0.
type Algorithm struct {
	g *graph.Graph
	n int
	k int
}

var (
	_ protocol.Algorithm       = (*Algorithm)(nil)
	_ protocol.Deterministic   = (*Algorithm)(nil)
	_ protocol.LegitEnumerator = (*Algorithm)(nil)
)

// New returns the K-state ring on n >= 3 processes with k states per
// process. Self-stabilization requires k >= n; smaller k is accepted for
// ablation experiments (the checker then finds non-converging executions).
func New(n, k int) (*Algorithm, error) {
	if n < 3 {
		return nil, fmt.Errorf("dijkstra: ring size must be >= 3, got %d", n)
	}
	if k < 2 {
		return nil, fmt.Errorf("dijkstra: need at least 2 states, got %d", k)
	}
	g, err := graph.Ring(n)
	if err != nil {
		return nil, fmt.Errorf("dijkstra: %w", err)
	}
	return &Algorithm{g: g, n: n, k: k}, nil
}

// Name implements protocol.Algorithm.
func (a *Algorithm) Name() string { return fmt.Sprintf("dijkstra(n=%d,k=%d)", a.n, a.k) }

// Graph implements protocol.Algorithm.
func (a *Algorithm) Graph() *graph.Graph { return a.g }

// StateCount implements protocol.Algorithm.
func (a *Algorithm) StateCount(int) int { return a.k }

// Privileged reports whether p holds a privilege (its guard is enabled).
func (a *Algorithm) Privileged(cfg protocol.Configuration, p int) bool {
	if p == 0 {
		return cfg[0] == cfg[a.n-1]
	}
	return cfg[p] != cfg[p-1]
}

// EnabledAction implements protocol.Algorithm.
func (a *Algorithm) EnabledAction(cfg protocol.Configuration, p int) int {
	if a.Privileged(cfg, p) {
		return ActionMove
	}
	return protocol.Disabled
}

// Outcomes implements protocol.Algorithm.
func (a *Algorithm) Outcomes(cfg protocol.Configuration, p, action int) []protocol.Outcome {
	return protocol.Det(a.DeterministicExecute(cfg, p, action))
}

// DeterministicExecute implements protocol.Deterministic.
func (a *Algorithm) DeterministicExecute(cfg protocol.Configuration, p, _ int) int {
	if p == 0 {
		return (cfg[0] + 1) % a.k
	}
	return cfg[p-1]
}

// ActionName implements protocol.Algorithm.
func (a *Algorithm) ActionName(int) string { return "move" }

// EnumerateLegitimate implements protocol.LegitEnumerator: the legitimate
// set in closed form, without scanning the k^n index range. Exactly one
// privilege forces one of two shapes: all processes equal (only the root's
// guard S_0 = S_{n-1} fires — k configurations), or a single break at some
// p ≥ 1 splitting the ring into a prefix of value v and a suffix of value
// w ≠ v (only p's guard S_p ≠ S_{p-1} fires, and the root stays quiet
// because S_0 = v ≠ w = S_{n-1}) — (n-1)·k·(k-1) configurations. The
// characterization is purely combinatorial, so it holds for the k < n
// ablation instances too. The yielded slice is reused between calls.
func (a *Algorithm) EnumerateLegitimate(yield func(protocol.Configuration) bool) {
	cfg := make(protocol.Configuration, a.n)
	for v := 0; v < a.k; v++ {
		for p := range cfg {
			cfg[p] = v
		}
		if !yield(cfg) {
			return
		}
	}
	for p := 1; p < a.n; p++ {
		for v := 0; v < a.k; v++ {
			for w := 0; w < a.k; w++ {
				if w == v {
					continue
				}
				for i := 0; i < p; i++ {
					cfg[i] = v
				}
				for i := p; i < a.n; i++ {
					cfg[i] = w
				}
				if !yield(cfg) {
					return
				}
			}
		}
	}
}

// Legitimate implements protocol.Algorithm: exactly one privilege.
func (a *Algorithm) Legitimate(cfg protocol.Configuration) bool {
	count := 0
	for p := 0; p < a.n; p++ {
		if a.Privileged(cfg, p) {
			count++
			if count > 1 {
				return false
			}
		}
	}
	return count == 1
}
