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
// The chain is CSR-native: a chain built FromSpace aliases the explored
// statespace.Space's off/succ/prob arrays without copying a single
// transition, so the analyses here run directly over the exploration
// engine's memory. Hand-built chains (New + SetRow) are sealed into the
// same layout on first analysis.
package markov

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"weakstab/internal/statespace"
)

// DefaultMaxStates caps the configuration space of Markov-only analyses
// when callers pass 0 (the chain needs no successor-set bookkeeping, so it
// historically affords a larger cap than the checker's default).
const DefaultMaxStates = 1 << 22

// Trans is a weighted transition to a state index.
type Trans struct {
	To   int
	Prob float64
}

// Chain is a finite discrete-time Markov chain over states 0..N-1. Rows
// must each sum to 1 (states with no explicit row are treated as absorbing
// self-loops).
type Chain struct {
	n    int
	off  []int64   // row offsets, len n+1
	succ []int32   // transition targets
	prob []float64 // transition probabilities aligned with succ

	sp      statespace.TransitionSystem // non-nil when aliasing an explored system
	rows    [][]Trans                   // builder rows, pending until the next seal
	dirty   bool                        // rows changed since the last seal
	workers int                         // analysis pool size override (0 = inherit)

	mu       sync.Mutex         // guards seal and the reverse cache
	rev      statespace.Reverse // cached predecessor view (builder path)
	revValid bool
}

// New returns a chain with n states and no transitions (all absorbing).
func New(n int) *Chain {
	return &Chain{n: n, rows: make([][]Trans, n), dirty: true}
}

// N returns the number of states.
func (c *Chain) N() int { return c.n }

// SetWorkers overrides the worker-pool size of the analyses (0 restores
// the default: the exploration pool of the backing space, or NumCPU).
// Results are identical for every worker count.
func (c *Chain) SetWorkers(n int) { c.workers = n }

// analysisWorkers resolves the worker-pool size the analyses run on.
func (c *Chain) analysisWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	if c.sp != nil && c.sp.PoolWorkers() > 0 {
		return c.sp.PoolWorkers()
	}
	return runtime.NumCPU()
}

// SetRow installs the outgoing distribution of state s. It returns an
// error if a target is out of range, a probability is non-positive, or the
// probabilities do not sum to 1 (within 1e-9). Duplicate targets are
// merged (by sorting the row; rows whose targets are already strictly
// ascending are installed without sorting).
func (c *Chain) SetRow(s int, ts []Trans) error {
	if s < 0 || s >= c.n {
		return fmt.Errorf("markov: state %d out of range [0,%d)", s, c.n)
	}
	sum := 0.0
	ascending := true
	for i, t := range ts {
		if t.To < 0 || t.To >= c.n {
			return fmt.Errorf("markov: transition target %d out of range [0,%d)", t.To, c.n)
		}
		if t.Prob <= 0 {
			return fmt.Errorf("markov: non-positive probability %g", t.Prob)
		}
		sum += t.Prob
		if i > 0 && t.To <= ts[i-1].To {
			ascending = false
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("markov: row %d sums to %g, want 1", s, sum)
	}
	row := make([]Trans, len(ts))
	copy(row, ts)
	if !ascending {
		sort.Slice(row, func(i, j int) bool { return row[i].To < row[j].To })
		merged := row[:0]
		for _, t := range row {
			if k := len(merged); k > 0 && merged[k-1].To == t.To {
				merged[k-1].Prob += t.Prob
			} else {
				merged = append(merged, t)
			}
		}
		row = merged
	}
	if c.rows == nil {
		c.unseal()
	}
	c.rows[s] = row
	c.dirty = true
	c.revValid = false
	return nil
}

// unseal materializes builder rows from the sealed CSR so a sealed chain
// (built FromSpace, or a hand-built chain after its first analysis) can
// still be edited through SetRow; a backing space stops being aliased
// from that point on.
func (c *Chain) unseal() {
	rows := make([][]Trans, c.n)
	for s := 0; s < c.n; s++ {
		lo, hi := c.off[s], c.off[s+1]
		if lo == hi {
			continue
		}
		row := make([]Trans, hi-lo)
		for i := lo; i < hi; i++ {
			row[i-lo] = Trans{To: int(c.succ[i]), Prob: c.prob[i]}
		}
		rows[s] = row
	}
	c.rows = rows
	c.sp = nil
}

// seal flattens the builder rows into the CSR arrays the analyses run on
// and releases the rows (SetRow rematerializes them on demand), so the
// sealed chain holds one copy of its transitions. The mutex makes
// concurrent analyses of one chain safe; mutating a chain (SetRow)
// concurrently with analyses is not supported.
func (c *Chain) seal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return
	}
	edges := 0
	for _, r := range c.rows {
		edges += len(r)
	}
	c.off = make([]int64, c.n+1)
	c.succ = make([]int32, edges)
	c.prob = make([]float64, edges)
	at := int64(0)
	for s, r := range c.rows {
		c.off[s] = at
		for _, t := range r {
			c.succ[at] = int32(t.To)
			c.prob[at] = t.Prob
			at++
		}
	}
	c.off[c.n] = at
	c.rows = nil
	c.dirty = false
	c.revValid = false
}

// rowSucc returns the transition targets of s (empty means absorbing).
func (c *Chain) rowSucc(s int) []int32 { return c.succ[c.off[s]:c.off[s+1]] }

// rowProb returns the transition probabilities aligned with rowSucc(s).
func (c *Chain) rowProb(s int) []float64 { return c.prob[c.off[s]:c.off[s+1]] }

// reverse returns the predecessor view of the chain: the backing space's
// cached view when the chain aliases one (shared with the checker), or a
// view built from the chain's own CSR and cached until the next SetRow.
func (c *Chain) reverse() statespace.Reverse {
	c.seal()
	if c.sp != nil {
		return c.sp.Reverse()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.revValid {
		c.rev = statespace.ReverseCSR(c.n, c.off, c.succ, c.analysisWorkers())
		c.revValid = true
	}
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

// CanReach returns, for every state, whether the target set is reachable
// with positive probability (a backward BFS over the shared reverse CSR,
// memoized on the backing system when target is its L).
func (c *Chain) CanReach(target []bool) []bool {
	dist := c.distances(target)
	out := make([]bool, c.n)
	for s := range out {
		out[s] = dist[s] >= 0
	}
	return out
}

// ReachesWithProbOne returns, for every state s, whether the chain started
// at s hits the target set with probability 1. For finite chains this holds
// iff the target is reachable from every state reachable from s, which is
// decided exactly without numerics: a state fails iff it can reach a "bad"
// state (one that cannot reach the target at all) along a path that does
// not pass through the target first. When target is the backing system's
// L, the first of the two backward passes is the system's memo.
func (c *Chain) ReachesWithProbOne(target []bool) []bool {
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
// closure — the analyses run over whichever state indexing it uses. Terminal states stay absorbing (empty rows). Rows are validated
// (positive probabilities summing to 1) in parallel without materializing
// anything.
func FromSpace(sp statespace.TransitionSystem) (*Chain, error) {
	off, succ, prob := sp.CSR()
	var (
		mu   sync.Mutex
		vErr error
	)
	statespace.ForRanges(sp.NumStates(), sp.PoolWorkers(), 1<<14, func(lo, hi int) bool {
		for s := lo; s < hi; s++ {
			a, b := off[s], off[s+1]
			if a == b {
				continue // absorbing
			}
			sum := 0.0
			for i := a; i < b; i++ {
				if prob[i] <= 0 {
					mu.Lock()
					if vErr == nil {
						vErr = fmt.Errorf("markov: non-positive probability %g in state %d", prob[i], s)
					}
					mu.Unlock()
					return false
				}
				sum += prob[i]
			}
			if math.Abs(sum-1) > 1e-9 {
				mu.Lock()
				if vErr == nil {
					vErr = fmt.Errorf("markov: row %d sums to %g, want 1", s, sum)
				}
				mu.Unlock()
				return false
			}
		}
		return true
	})
	if vErr != nil {
		return nil, vErr
	}
	return &Chain{n: sp.NumStates(), off: off, succ: succ, prob: prob, sp: sp}, nil
}

// TargetFromSpace returns the legitimate-set target vector of an explored
// system (aliasing its legitimacy vector; callers must not modify it).
func TargetFromSpace(sp statespace.TransitionSystem) []bool { return sp.LegitSet() }

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
