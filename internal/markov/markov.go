// Package markov provides exact analysis of the finite Markov chains
// induced by running an algorithm under a randomized scheduler
// (Definition 6 of the paper: the scheduler draws uniformly among the
// activation subsets its policy allows, and probabilistic actions
// contribute their outcome distributions).
//
// The two quantities the experiments need are
//
//   - probability-1 reachability of the legitimate set L (the paper's
//     probabilistic convergence, Definition 2), decided exactly by graph
//     analysis (no floating-point tolerance), and
//   - expected hitting times of L (the "expected stabilization time" the
//     paper's conclusion calls for), computed by decomposing the linear
//     system along the strongly connected components of the transient
//     subgraph and solving the blocks in reverse topological order (see
//     solver.go).
//
// The chain is one read-only CSR. A chain built FromSpace aliases the
// explored statespace.Space's offsets, successors and palette-coded
// probabilities without copying a single transition, so the analyses here
// run directly over the exploration engine's memory; FromCSR wraps
// hand-built arrays, whose probabilities stay plain float64s. Every
// analysis reads a probability through statespace.Probs.At, so it runs
// one code path over either layout.
package markov

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"weakstab/internal/obs"
	"weakstab/internal/statespace"
)

// Chain is a finite discrete-time Markov chain over states 0..N-1 in CSR
// form. Every non-empty row is a distribution over strictly ascending
// targets; an empty row is an absorbing state. A chain is immutable, so
// concurrent analyses of one chain are safe.
type Chain struct {
	n    int
	off  []int64          // row offsets, len n+1
	succ []int32          // transition targets
	prob statespace.Probs // transition probabilities aligned with succ

	sp      *statespace.Space // non-nil when aliasing an explored space
	workers int               // analysis pool size override, set by tests (0 = inherit)

	revOnce sync.Once
	rev     statespace.Reverse // predecessor view of a chain without a backing system

	probOneOnce sync.Once
	probOne     []bool // ReachesWithProbOne of the backing system's L
}

// analysisWorkers resolves the worker-pool size the analyses run on: the
// override, else the exploration pool of the backing system, else NumCPU.
// Results are identical for every worker count.
func (c *Chain) analysisWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	if c.sp != nil && c.sp.PoolWorkers() > 0 {
		return c.sp.PoolWorkers()
	}
	return runtime.NumCPU()
}

// FromCSR wraps hand-built CSR arrays in a chain without copying them:
// state s moves to succ[off[s]:off[s+1]] with the aligned probabilities.
// It rejects offsets that do not run from 0 to len(succ) without
// decreasing, probabilities not aligned with succ, targets out of range
// or not strictly ascending within a row, and rows that are not
// distributions (see CheckRows). The caller must not modify the arrays
// afterwards.
func FromCSR(off []int64, succ []int32, prob []float64) (*Chain, error) {
	if len(off) == 0 || off[0] != 0 || len(succ) != len(prob) || off[len(off)-1] != int64(len(succ)) {
		return nil, fmt.Errorf("markov: offsets must run from 0 to %d transitions", len(succ))
	}
	n := len(off) - 1
	for s := 0; s < n; s++ {
		if off[s+1] < off[s] {
			return nil, fmt.Errorf("markov: row %d has negative length", s)
		}
	}
	for s := 0; s < n; s++ {
		for i := off[s]; i < off[s+1]; i++ {
			if t := succ[i]; t < 0 || int(t) >= n {
				return nil, fmt.Errorf("markov: transition target %d out of range [0,%d)", t, n)
			}
			if i > off[s] && succ[i] <= succ[i-1] {
				return nil, fmt.Errorf("markov: row %d targets not strictly ascending", s)
			}
		}
	}
	c := &Chain{n: n, off: off, succ: succ, prob: statespace.WideProbs(prob)}
	if err := CheckRows(off, c.prob, c.analysisWorkers(), nil); err != nil {
		return nil, err
	}
	return c, nil
}

// CheckRows validates that every non-empty row of a CSR chain is a
// distribution: positive probabilities summing to 1 within 1e-9. Rows are
// checked in parallel on a pool of workers; each valid non-empty row is
// then handed to row (when non-nil) as its state s and CSR position range
// [a, b), so row must be safe for concurrent calls on distinct rows. It
// returns one of the violations when there is any.
func CheckRows(off []int64, prob statespace.Probs, workers int, row func(s int, a, b int64)) error {
	return statespace.ForRanges(len(off)-1, workers, 1<<14, func(lo, hi int) error {
		for s := lo; s < hi; s++ {
			a, b := off[s], off[s+1]
			if a == b {
				continue // absorbing
			}
			sum := 0.0
			for i := a; i < b; i++ {
				p := prob.At(i)
				if !(p > 0) { // NaN fails too
					return fmt.Errorf("markov: non-positive probability %g in state %d", p, s)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("markov: row %d sums to %g, want 1", s, sum)
			}
			if row != nil {
				row(s, a, b)
			}
		}
		return nil
	})
}

// rowSucc returns the transition targets of s (empty means absorbing).
func (c *Chain) rowSucc(s int) []int32 { return c.succ[c.off[s]:c.off[s+1]] }

// observer returns where the chain's analyses report: the observer the
// backing space was built or loaded with, else the process default.
func (c *Chain) observer() *obs.Observer {
	if c.sp != nil {
		return obs.Or(c.sp.Obs)
	}
	return obs.Default()
}

// reverse returns the predecessor view of the chain: the backing system's
// cached view when the chain aliases one (shared with the checker), or a
// view built once from the chain's own CSR.
func (c *Chain) reverse() statespace.Reverse {
	if c.sp != nil {
		return c.sp.Reverse()
	}
	c.revOnce.Do(func() {
		c.rev = statespace.ReverseCSR(c.n, c.off, c.succ, c.analysisWorkers())
	})
	return c.rev
}

// legitTarget reports whether target is the backing system's legitimacy
// vector itself — the same backing array, as TargetFromSpace returns —
// so the system's memoized passes over L answer for it. A copy of the
// vector, however equal, takes the unshared path.
func (c *Chain) legitTarget(target []bool) bool {
	if c.sp == nil || len(target) == 0 {
		return false
	}
	legit := c.sp.LegitSet()
	return len(legit) == len(target) && &legit[0] == &target[0]
}

// distances returns the backward BFS distances to target: the backing
// system's memoized LegitDistances when target is its L, a fresh BFS over
// the shared reverse CSR otherwise. The result must not be modified.
func (c *Chain) distances(target []bool) []int32 {
	if c.legitTarget(target) {
		return c.sp.LegitDistances()
	}
	return c.reverse().BackwardBFS(target, nil, c.analysisWorkers())
}

// ReachesWithProbOne returns, for every state s, whether the chain started
// at s hits the target set with probability 1. For finite chains this holds
// iff the target is reachable from every state reachable from s, which is
// decided exactly without numerics: a state fails iff it can reach a "bad"
// state (one that cannot reach the target at all) along a path that does
// not pass through the target first. When target is the backing system's
// L, the first of the two backward passes is the system's memo and the
// answer is computed once per chain, so a report and its hitting-time
// solve share it; the result must not be modified.
func (c *Chain) ReachesWithProbOne(target []bool) []bool {
	if c.legitTarget(target) {
		c.probOneOnce.Do(func() { c.probOne = c.reachesWithProbOne(target) })
		return c.probOne
	}
	return c.reachesWithProbOne(target)
}

func (c *Chain) reachesWithProbOne(target []bool) []bool {
	canReach := c.distances(target)
	bad := make([]bool, c.n)
	for s := range bad {
		bad[s] = canReach[s] < 0
	}
	// Backward closure of the bad states over edges whose source is not a
	// target state (paths are cut at the target: hitting it is success).
	canFail := c.reverse().BackwardBFS(bad, target, c.analysisWorkers())
	out := make([]bool, c.n)
	for s := range out {
		out[s] = target[s] || canFail[s] < 0
	}
	return out
}

// FromSpace builds the chain over an already-explored transition system's
// weighted view with zero copying: the chain aliases the system's CSR
// arrays directly, so constructing it allocates nothing per transition.
// The system may span the full index range or a frontier-explored
// closure — the analyses run over whichever state indexing it uses.
// Terminal states stay absorbing (empty rows). Exploration and loading
// already validated the offsets and targets, so only the rows'
// distributions are checked (CheckRows).
func FromSpace(sp *statespace.Space) (*Chain, error) {
	off, succ, prob := sp.CSR()
	if err := CheckRows(off, prob, sp.PoolWorkers(), nil); err != nil {
		return nil, err
	}
	return &Chain{n: sp.NumStates(), off: off, succ: succ, prob: prob, sp: sp}, nil
}

// TargetFromSpace returns the legitimate-set target vector of an explored
// system (aliasing its legitimacy vector; callers must not modify it).
func TargetFromSpace(sp *statespace.Space) []bool { return sp.LegitSet() }

// Summary aggregates hitting times over the non-target states.
type Summary struct {
	States    int     // total states
	Target    int     // target states
	Divergent int     // states with infinite hitting time
	Mean      float64 // mean over finite non-target hitting times
	Max       float64 // maximum finite hitting time
}

// Summarize computes aggregate statistics of hitting times h over the
// complement of target.
func Summarize(h []float64, target []bool) Summary {
	s := Summary{States: len(h)}
	count := 0
	for i, v := range h {
		if target[i] {
			s.Target++
			continue
		}
		if math.IsInf(v, 1) {
			s.Divergent++
			continue
		}
		count++
		s.Mean += v
		if v > s.Max {
			s.Max = v
		}
	}
	if count > 0 {
		s.Mean /= float64(count)
	}
	return s
}
