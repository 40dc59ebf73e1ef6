// Package ijtoken implements the Israeli–Jalfon randomized token-merging
// scheme (PODC 1990): tokens perform random walks on an arbitrary connected
// graph and merge when they meet, leaving a single circulating token — a
// probabilistic self-stabilizing mutual exclusion baseline for experiment
// E12.
//
// Israeli and Jalfon's protocol lives in a token-passing model: a move
// transfers a token from one process to a neighbor, which is a joint write
// the locally-shared-memory model of package protocol cannot express (a
// process may only write its own state). This package therefore analyzes
// the protocol's defining stochastic process directly: the system state is
// the set of occupied nodes, a step picks one token uniformly at random
// (the central randomized scheduler) and moves it to a uniformly random
// neighbor, merging on contact. Expected single-token times come from
// exact Markov hitting-time
// analysis over the 2^N-1 occupancy sets, or Monte-Carlo simulation for
// larger graphs.
package ijtoken

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"weakstab/internal/graph"
	"weakstab/internal/markov"
)

// System is an Israeli–Jalfon token system on a connected graph.
type System struct {
	g *graph.Graph
}

// New returns a token system on g.
func New(g *graph.Graph) (*System, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("ijtoken: need at least 2 nodes, got %d", g.N())
	}
	return &System{g: g}, nil
}

// Graph returns the underlying graph.
func (s *System) Graph() *graph.Graph { return s.g }

// Step moves one uniformly chosen token to a uniformly random neighbor,
// merging tokens that land on an occupied node. tokens must be a non-empty
// ascending set of node ids; the returned set is ascending.
func (s *System) Step(tokens []int, rng *rand.Rand) []int {
	i := rng.Intn(len(tokens))
	from := tokens[i]
	to := s.g.Neighbor(from, rng.Intn(s.g.Degree(from)))
	next := make([]int, 0, len(tokens))
	occupied := false
	for j, t := range tokens {
		if j == i {
			continue
		}
		if t == to {
			occupied = true
		}
		next = append(next, t)
	}
	if !occupied {
		next = append(next, to)
		sort.Ints(next)
	}
	return next
}

// Simulate runs steps until a single token remains, returning the step
// count, or ok=false if maxSteps is exhausted.
func (s *System) Simulate(initial []int, rng *rand.Rand, maxSteps int) (steps int, ok bool) {
	tokens := append([]int(nil), initial...)
	sort.Ints(tokens)
	for steps = 0; steps < maxSteps; steps++ {
		if len(tokens) == 1 {
			return steps, true
		}
		tokens = s.Step(tokens, rng)
	}
	return maxSteps, len(tokens) == 1
}

// maskLimit bounds exact analysis: 2^20 occupancy sets.
const maskLimit = 20

// ExpectedMergeTime returns the exact expected number of steps until a
// single token remains, starting from the given occupied set, via Markov
// hitting-time analysis over all occupancy sets. Graphs larger than 20
// nodes are rejected (use Simulate).
func (s *System) ExpectedMergeTime(initial []int) (float64, error) {
	n := s.g.N()
	if n > maskLimit {
		return 0, fmt.Errorf("ijtoken: exact analysis limited to %d nodes, got %d", maskLimit, n)
	}
	if len(initial) == 0 {
		return 0, fmt.Errorf("ijtoken: need at least one token")
	}
	var start int
	for _, t := range initial {
		if t < 0 || t >= n {
			return 0, fmt.Errorf("ijtoken: token position %d out of range [0,%d)", t, n)
		}
		start |= 1 << uint(t)
	}
	chain, target, err := s.buildChain()
	if err != nil {
		return 0, err
	}
	h, err := chain.HittingTimes(target)
	if err != nil {
		return 0, err
	}
	v := h[start]
	if math.IsInf(v, 1) {
		return 0, fmt.Errorf("ijtoken: merge not reached with probability 1 (unexpected)")
	}
	return v, nil
}

// buildChain constructs the occupancy-set Markov chain. State index =
// bitmask of occupied nodes; mask 0 is unreachable and left absorbing.
// Each row lists its successor masks in ascending order; a token with
// several occupied neighbours reaches the same mask once per neighbour,
// and those moves are summed into one transition.
func (s *System) buildChain() (*markov.Chain, []bool, error) {
	n := s.g.N()
	total := 1 << uint(n)
	target := make([]bool, total)
	off := make([]int64, total+1)
	var (
		succ []int32
		prob []float64
	)
	type move struct {
		to int32
		p  float64
	}
	var row []move
	for mask := 1; mask < total; mask++ {
		off[mask] = int64(len(succ))
		k := popcount(mask)
		if k == 1 {
			target[mask] = true
			continue // absorbing: merged
		}
		row = row[:0]
		pTok := 1 / float64(k)
		for p := 0; p < n; p++ {
			if mask&(1<<uint(p)) == 0 {
				continue
			}
			deg := s.g.Degree(p)
			pMove := pTok / float64(deg)
			for i := 0; i < deg; i++ {
				q := s.g.Neighbor(p, i)
				next := (mask &^ (1 << uint(p))) | 1<<uint(q)
				row = append(row, move{int32(next), pMove})
			}
		}
		slices.SortFunc(row, func(a, b move) int { return cmp.Compare(a.to, b.to) })
		for i := 0; i < len(row); {
			to, p := row[i].to, row[i].p
			for i++; i < len(row) && row[i].to == to; i++ {
				p += row[i].p
			}
			succ = append(succ, to)
			prob = append(prob, p)
		}
	}
	off[total] = int64(len(succ))
	chain, err := markov.FromCSR(off, succ, prob)
	if err != nil {
		return nil, nil, fmt.Errorf("ijtoken: building chain: %w", err)
	}
	return chain, target, nil
}

func popcount(x int) int {
	count := 0
	for x != 0 {
		x &= x - 1
		count++
	}
	return count
}

// AllNodes returns the token set occupying every node — the worst-case
// initial configuration used by the E12 baseline comparison.
func (s *System) AllNodes() []int {
	out := make([]int, s.g.N())
	for i := range out {
		out[i] = i
	}
	return out
}
