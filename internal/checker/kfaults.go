package checker

// Fault-distance analysis, after the k-stabilization literature the paper
// contrasts itself with (Beauquier–Genolini–Kutten 1998; Genolini–Tixeuil
// 2002): the number of faults needed to produce a configuration is the
// number of process memories that must change to reach a legitimate
// configuration. DistanceToLegitimate computes that Hamming-like distance
// for every explored configuration; KFaultVerdict restricts the paper's
// convergence properties to configurations reachable by at most k faults.
//
// Two exploration strategies feed the verdict. CheckKFaults classifies over
// an already-built system (historically the full space). The ball pipeline
// is the frontier path: FaultBallContext enumerates the distance-≤k ball
// directly (a BFS over single-process mutations, no transition
// exploration), BallClosureContext frontier-explores only the ball's
// forward closure (statespace.BuildFromContext), and BallVerdictsOver
// classifies over that subspace — bit-identical verdicts at the cost of
// the ball's closure instead of the whole configuration space. The ball
// enumeration seeds from the algorithm's closed-form legitimate set
// (protocol.LegitEnumerator) when available, so the pipeline is strictly
// ball-sized; BallSweep and SweepKFaultsContext (ballsweep.go) make it
// incremental across k on top of the same machinery.

import (
	"context"
	"fmt"

	"weakstab/internal/protocol"
	"weakstab/internal/statespace"
)

// DistanceToLegitimate returns, for every explored configuration index,
// the minimum number of process states that must change to obtain a
// legitimate configuration (0 on L itself, -1 if unreachable by mutations
// within the system). It runs a multi-source BFS from L over
// single-process mutations, so the cost is O(states × Σ_p |domain_p|).
// The queue is consumed by head index (popping via queue = queue[1:]
// would re-grow the backing array on every append once len reaches cap)
// and configurations are decoded into one reused buffer.
//
// On an explored closure, mutations leaving it are skipped: the distance
// is then relative to the closure (exact whenever the closure contains
// the full mutation ball, as BallClosureContext's does).
func (sp *Space) DistanceToLegitimate() []int {
	a := sp.Algorithm()
	n := a.Graph().N()
	states := sp.NumStates()
	legit := sp.LegitSet()
	dist := make([]int, states)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, states)
	for s := 0; s < states; s++ {
		if legit[s] {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	var cfg protocol.Configuration
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		cfg = sp.ConfigInto(int(s), cfg)
		d := dist[s]
		for p := 0; p < n; p++ {
			orig := cfg[p]
			for v := 0; v < a.StateCount(p); v++ {
				if v == orig {
					continue
				}
				cfg[p] = v
				if t, ok := sp.StateOf(cfg); ok && dist[t] == -1 {
					dist[t] = d + 1
					queue = append(queue, t)
				}
			}
			cfg[p] = orig
		}
	}
	return dist
}

// KFaultVerdict reports the convergence properties restricted to the
// configurations at fault distance at most k from L.
type KFaultVerdict struct {
	K int
	// Configs counts configurations within distance k (including L).
	Configs int
	// Possible: every such configuration can reach L.
	Possible bool
	// Certain: every execution from every such configuration reaches L.
	// Note that intermediate configurations may leave the distance-k ball;
	// the property quantifies only over initial configurations, exactly as
	// k-stabilization does.
	Certain bool
	// Counterexample, when Certain is false, is an initial configuration
	// within distance k admitting a diverging execution.
	Counterexample protocol.Configuration
}

// CheckKFaults evaluates KFaultVerdict for the given k using a
// precomputed distance vector (pass nil to compute it).
func (sp *Space) CheckKFaults(k int, dist []int) KFaultVerdict {
	if dist == nil {
		dist = sp.DistanceToLegitimate()
	}
	toL, diverging := sp.verdictVectors()
	return sp.checkKFaults(k, dist, toL, diverging)
}

// checkKFaults is the verdict scan over the distances to L and the
// divergence vector (verdictVectors), shared by CheckKFaults,
// BallVerdictAt and BallVerdictsOver (which evaluates many k values over
// one pair of vectors).
func (sp *Space) checkKFaults(k int, dist []int, toL []int32, diverging []bool) KFaultVerdict {
	v := KFaultVerdict{K: k, Possible: true, Certain: true}
	for s := range dist {
		if dist[s] < 0 || dist[s] > k {
			continue
		}
		v.Configs++
		if toL[s] < 0 {
			v.Possible = false
		}
		if diverging[s] && v.Certain {
			v.Certain = false
			v.Counterexample = sp.Config(s)
		}
	}
	return v
}

// verdictVectors returns the vectors of the verdict scan: the distances
// to L (LegitDistances) and the diverging states, from which some
// execution avoids L forever by reaching (via illegitimate states) an
// illegitimate cycle or terminal state. The distances and the divergence
// seeds (IllegitSCC) share no memo, so they are built side by side on
// statespace.ForRanges, in that order at one worker; the seeds' closure
// runs after both.
func (sp *Space) verdictVectors() (toL []int32, diverging []bool) {
	_ = statespace.ForRanges(2, sp.PoolWorkers(), 1, func(task, _ int) error {
		if task == 0 {
			toL = sp.LegitDistances()
		} else {
			diverging = sp.divergenceSeeds()
		}
		return nil
	})
	// Backward closure through illegitimate states: a BFS over the shared
	// reverse CSR with legitimate states excluded from path interiors.
	dist := sp.Reverse().BackwardBFS(diverging, sp.LegitSet(), sp.PoolWorkers())
	for s := range diverging {
		diverging[s] = dist[s] >= 0
	}
	return toL, diverging
}

// divergenceSeeds marks the states where an execution can stay outside L
// forever without leaving them: illegitimate terminal states and states on
// illegitimate cycles. A state lies on an illegitimate cycle iff its
// component of the illegitimate subgraph (the memoized IllegitSCC) has a
// cycle: more than one state, or a singleton with a self-loop.
func (sp *Space) divergenceSeeds() []bool {
	cond := sp.IllegitSCC()
	seeds := make([]bool, sp.NumStates())
	for c := 0; c < cond.Count(); c++ {
		states := cond.Component(c)
		for _, s := range states {
			seeds[s] = len(states) > 1 || sp.hasSelfLoop(s) || sp.IsTerminal(int(s))
		}
	}
	return seeds
}

// FaultBallContext enumerates every configuration at fault distance at
// most k from the legitimate set of a, without exploring any transition.
// The seed set L comes from the algorithm's closed-form enumeration when
// it implements protocol.LegitEnumerator — zero full-range passes — and
// from a parallel legitimacy scan of the index range otherwise; either way
// a BFS over single-process mutations truncated at depth k grows the ball.
// It returns the ball's global configuration indexes in ascending order
// with the aligned exact fault distances. Memory is proportional to the
// ball, not the range (statespace.Dedup); time is O(|L| × Σ_p |domain_p|)
// plus O(range) only on the scan path. maxStates caps the ball size (0
// means statespace.DefaultMaxStates), mirroring every other exploration
// path. ctx is checked before every mutation shell (and per chunk of the
// legitimacy scan), so a cancelled enumeration returns an error wrapping
// ctx.Err() in bounded time.
//
// FaultBallContext is the one-shot face of the resumable BallSweep:
// callers walking k upward (the smallest-k-that-breaks search) keep a
// BallSweep alive and grow it instead of re-enumerating per k.
func FaultBallContext(ctx context.Context, a protocol.Algorithm, k int, workers int, maxStates int64) ([]int64, []int, error) {
	b, err := newBallGrower(ctx, a, workers, maxStates)
	if err != nil {
		return nil, nil, err
	}
	if err := b.growTo(ctx, k); err != nil {
		return nil, nil, err
	}
	g, d := b.sorted()
	return g, d, nil
}

// BallLocalDistances maps the ball enumeration (globals and aligned fault
// distances, as returned by FaultBallContext or BallClosureContext) onto
// the local state ids of the ball's closure subspace: ball members carry
// their exact distance, closure states discovered beyond the ball are
// marked -1 (they are not initial configurations of any k'-fault
// scenario). Both global lists ascend, so one merge walk maps the ball. A
// nil subspace (BallClosureContext's empty-legitimate-set result) yields
// nil.
func BallLocalDistances(ss *statespace.Space, globals []int64, ballDist []int) []int {
	if ss == nil {
		return nil
	}
	dist := make([]int, ss.NumStates())
	for i := range dist {
		dist[i] = -1
	}
	local, j := ss.Globals(), 0
	for i, g := range globals {
		for local[j] < g {
			j++
		}
		if local[j] != g {
			panic(fmt.Sprintf("checker: ball configuration %d is not a state of its closure", g))
		}
		dist[j] = ballDist[i]
	}
	return dist
}

// BallVerdictsOver classifies the k-fault convergence properties for every
// k' in 0..k over an already-built ball closure — no exploration of any
// kind happens here, so a caller that has the subspace in hand (from
// BallClosureContext, or loaded from an on-disk cache) pays only for the
// verdict scans. localDist is the per-local-state fault-distance vector
// (BallLocalDistances), taken precomputed so callers that also need it —
// e.g. for per-distance hitting times — compute it once. A nil subspace
// (BallClosureContext's empty-legitimate-set result) yields the vacuous
// verdicts of an empty legitimate set — every property holds over no
// initial configurations — so the whole ball pipeline composes without a
// caller-side guard.
func BallVerdictsOver(ss *statespace.Space, localDist []int, k int) []KFaultVerdict {
	out := make([]KFaultVerdict, k+1)
	if ss == nil {
		for kk := range out {
			out[kk] = KFaultVerdict{K: kk, Possible: true, Certain: true}
		}
		return out
	}
	sp := FromSpace(ss)
	toL, diverging := sp.verdictVectors()
	for kk := range out {
		out[kk] = sp.checkKFaults(kk, localDist, toL, diverging)
	}
	return out
}
