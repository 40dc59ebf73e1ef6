package checker

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func mustTokenRing(t *testing.T, n int) *tokenring.Algorithm {
	t.Helper()
	a, err := tokenring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustLeaderChain(t *testing.T, n int) *leadertree.Algorithm {
	t.Helper()
	g, err := graph.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// explore builds the full space of a under pol in the checker view.
func explore(t testing.TB, a protocol.Algorithm, pol scheduler.Policy) *Space {
	t.Helper()
	ss, err := statespace.Build(a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return FromSpace(ss)
}

// verdict is an instance's closure and convergence results under one
// policy.
type verdict struct {
	Closure  ClosureResult
	Possible ConvergenceResult // weak stabilization = Closure && Possible
	Certain  ConvergenceResult // self stabilization = Closure && Certain
}

func (v verdict) WeakStabilizing() bool { return v.Closure.Holds && v.Possible.Holds }

func (v verdict) SelfStabilizing() bool { return v.Closure.Holds && v.Certain.Holds }

func classify(t *testing.T, a protocol.Algorithm, pol scheduler.Policy) verdict {
	t.Helper()
	sp := explore(t, a, pol)
	return verdict{sp.CheckClosure(), sp.CheckPossibleConvergence(), sp.CheckCertainConvergence()}
}

func TestTheorem2TokenRingWeakNotSelf(t *testing.T) {
	// Algorithm 1 is weak-stabilizing but not self-stabilizing under both
	// central and distributed schedulers (Theorems 2 and 6), verified
	// exhaustively for several ring sizes.
	for _, n := range []int{3, 4, 5, 6} {
		a := mustTokenRing(t, n)
		for _, pol := range []scheduler.Policy{scheduler.CentralPolicy, scheduler.DistributedPolicy} {
			v := classify(t, a, pol)
			if !v.Closure.Holds {
				t.Fatalf("n=%d %s: closure fails: %v -> %v", n, pol.Name(), v.Closure.From, v.Closure.To)
			}
			if !v.Possible.Holds {
				t.Fatalf("n=%d %s: possible convergence fails at %v", n, pol.Name(), v.Possible.Counterexample)
			}
			if !v.WeakStabilizing() {
				t.Fatalf("n=%d %s: want weak-stabilizing", n, pol.Name())
			}
			if n >= 4 && v.Certain.Holds {
				// With n >= 4 multi-token configurations admit diverging
				// executions; n = 3 with mN = 2 also diverges.
				t.Fatalf("n=%d %s: token ring must not be self-stabilizing", n, pol.Name())
			}
		}
	}
}

func TestTheorem1SynchronousWeakIffSelf(t *testing.T) {
	// Under the synchronous scheduler executions are unique, so weak and
	// self stabilization coincide (Theorem 1). Verified on deterministic
	// instances of all three paper algorithms.
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	algs := []protocol.Algorithm{
		mustTokenRing(t, 4),
		mustTokenRing(t, 5),
		mustLeaderChain(t, 4),
		sp,
	}
	for _, a := range algs {
		v := classify(t, a, scheduler.SynchronousPolicy)
		if v.WeakStabilizing() != v.SelfStabilizing() {
			t.Fatalf("%s: weak=%v self=%v under synchronous scheduler",
				a.Name(), v.WeakStabilizing(), v.SelfStabilizing())
		}
	}
}

func TestSyncpairClassification(t *testing.T) {
	// Algorithm 3: weak-stabilizing under the distributed scheduler,
	// NOT weak-stabilizing under the central scheduler (the converging
	// step needs both processes), self-stabilizing under synchronous.
	a, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	dist := classify(t, a, scheduler.DistributedPolicy)
	if !dist.WeakStabilizing() {
		t.Fatal("syncpair must be weak-stabilizing under the distributed scheduler")
	}
	if dist.SelfStabilizing() {
		t.Fatal("syncpair must not be self-stabilizing under the distributed scheduler")
	}
	central := classify(t, a, scheduler.CentralPolicy)
	if central.Possible.Holds {
		t.Fatal("syncpair cannot possibly converge under the central scheduler")
	}
	sync := classify(t, a, scheduler.SynchronousPolicy)
	if !sync.SelfStabilizing() {
		t.Fatal("syncpair must be self-stabilizing under the synchronous scheduler")
	}
}

func TestTheorem4LeaderTreeWeakNotSelf(t *testing.T) {
	a := mustLeaderChain(t, 4)
	dist := classify(t, a, scheduler.DistributedPolicy)
	if !dist.WeakStabilizing() {
		t.Fatal("Algorithm 2 must be weak-stabilizing under the distributed scheduler")
	}
	if dist.SelfStabilizing() {
		t.Fatal("Algorithm 2 must not be self-stabilizing (Figure 3)")
	}
	// Under synchronous the Figure 3 livelock kills even weak
	// stabilization (per Theorem 1 it would otherwise be self-stabilizing,
	// contradicting Theorem 3).
	sync := classify(t, a, scheduler.SynchronousPolicy)
	if sync.WeakStabilizing() {
		t.Fatal("Algorithm 2 must not be weak-stabilizing under the synchronous scheduler")
	}
}

func TestTheorem4AllTreesN4N5(t *testing.T) {
	// Exhaustive Theorem 4 check over every labeled tree on 4 and 5
	// nodes: weak-stabilizing under the central policy (possible
	// convergence carries to any stronger policy).
	for _, n := range []int{4, 5} {
		if err := graph.AllLabeledTrees(n, func(g *graph.Graph) bool {
			a, err := leadertree.New(g)
			if err != nil {
				t.Fatal(err)
			}
			v := classify(t, a, scheduler.CentralPolicy)
			if !v.WeakStabilizing() {
				t.Fatalf("tree %v: Algorithm 2 not weak-stabilizing", g)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDijkstraSelfStabilizing(t *testing.T) {
	// The classical baseline really is self-stabilizing (root + K >= N).
	for _, n := range []int{3, 4} {
		a, err := dijkstra.New(n, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []scheduler.Policy{scheduler.CentralPolicy, scheduler.DistributedPolicy} {
			v := classify(t, a, pol)
			if !v.SelfStabilizing() {
				t.Fatalf("dijkstra n=%d under %s: want self-stabilizing (closure=%v possible=%v certain=%v: %s)",
					n, pol.Name(), v.Closure.Holds, v.Possible.Holds, v.Certain.Holds, v.Certain.Reason)
			}
		}
	}
}

func TestDijkstraTooFewStatesFails(t *testing.T) {
	// Ablation: K = 2 < N-1 = 3 breaks self-stabilization.
	a, err := dijkstra.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := classify(t, a, scheduler.CentralPolicy)
	if v.SelfStabilizing() {
		t.Fatal("dijkstra with K=2, N=4 must not be self-stabilizing")
	}
}

func TestClosureViolationWitness(t *testing.T) {
	// An algorithm with a broken legitimate set yields a closure witness.
	a := badClosure{mustTokenRing(t, 3)}
	sp := explore(t, a, scheduler.CentralPolicy)
	res := sp.CheckClosure()
	if res.Holds {
		t.Fatal("closure should fail for the doctored legitimate set")
	}
	if res.From == nil || res.To == nil {
		t.Fatal("closure violation must carry a witness step")
	}
	if !a.Legitimate(res.From) || a.Legitimate(res.To) {
		t.Fatal("witness step must leave the legitimate set")
	}
}

// badClosure declares one specific configuration legitimate, breaking
// closure on purpose.
type badClosure struct {
	*tokenring.Algorithm
}

func (b badClosure) Legitimate(cfg protocol.Configuration) bool {
	// Only the configuration <0 1 0> is "legitimate": its successor is not.
	return cfg[0] == 0 && cfg[1] == 1 && cfg[2] == 0
}

func TestCertainConvergenceDeadlockWitness(t *testing.T) {
	// Token ring with modulus dividing N has token-free terminal
	// configurations: certain convergence fails with a deadlock witness.
	a, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := explore(t, a, scheduler.CentralPolicy)
	res := sp.CheckCertainConvergence()
	if res.Holds {
		t.Fatal("certain convergence should fail")
	}
	if res.Reason == "" || res.Counterexample == nil {
		t.Fatal("missing witness")
	}
}

func TestWitnessPath(t *testing.T) {
	a := mustTokenRing(t, 5)
	sp := explore(t, a, scheduler.CentralPolicy)
	// A multi-token configuration.
	start := protocol.Configuration{0, 0, 0, 0, 0}
	path := sp.WitnessPath(start)
	if path == nil {
		t.Fatal("no witness path found (contradicts weak stabilization)")
	}
	if !path[0].Equal(start) {
		t.Fatalf("path starts at %v, want %v", path[0], start)
	}
	last := path[len(path)-1]
	if !a.Legitimate(last) {
		t.Fatalf("path ends at illegitimate %v", last)
	}
	// Every hop must be a real step: successor reachable via some subset.
	for i := 0; i+1 < len(path); i++ {
		s, _ := sp.StateOf(path[i])
		tIdx, _ := sp.StateOf(path[i+1])
		found := false
		for _, succ := range sp.Succ(int(s)) {
			if succ == tIdx {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("hop %v -> %v is not a valid step", path[i], path[i+1])
		}
	}
}

func TestWitnessPathFromLegitimate(t *testing.T) {
	a := mustTokenRing(t, 5)
	sp := explore(t, a, scheduler.CentralPolicy)
	start := a.LegitimateWithTokenAt(2)
	path := sp.WitnessPath(start)
	if len(path) != 1 {
		t.Fatalf("path from legitimate configuration has length %d, want 1", len(path))
	}
}

func TestTheorem6FairLassoOnTokenRing(t *testing.T) {
	// The checker finds a strongly fair non-converging lasso for the
	// 6-ring (Theorem 6's two-token alternation, machine-discovered).
	a := mustTokenRing(t, 6)
	sp := explore(t, a, scheduler.CentralPolicy)
	lasso := sp.FindStronglyFairLasso()
	if !lasso.Found {
		t.Fatal("no strongly fair lasso found for the 6-ring token circulation")
	}
	if len(lasso.Cycle) == 0 || len(lasso.Records) != len(lasso.Cycle) {
		t.Fatalf("malformed lasso: %d configs, %d records", len(lasso.Cycle), len(lasso.Records))
	}
	for _, cfg := range lasso.Cycle {
		if a.Legitimate(cfg) {
			t.Fatalf("lasso passes through legitimate configuration %v", cfg)
		}
	}
	if !scheduler.StronglyFairCycle(lasso.Records) {
		t.Fatal("returned lasso is not strongly fair")
	}
}

func TestNoFairLassoForSelfStabilizing(t *testing.T) {
	a, err := dijkstra.New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := explore(t, a, scheduler.CentralPolicy)
	if lasso := sp.FindStronglyFairLasso(); lasso.Found {
		t.Fatal("self-stabilizing algorithm cannot have a non-converging lasso")
	}
}

func TestFigure3LivelockDetectedSynchronously(t *testing.T) {
	a := mustLeaderChain(t, 4)
	sp := explore(t, a, scheduler.SynchronousPolicy)
	res := sp.CheckCertainConvergence()
	if res.Holds {
		t.Fatal("synchronous Algorithm 2 must have a diverging execution")
	}
	lasso := sp.FindStronglyFairLasso()
	if !lasso.Found {
		t.Fatal("the synchronous livelock is trivially strongly fair (all processes move)")
	}
}

func TestMaxShortestConvergencePath(t *testing.T) {
	a := mustTokenRing(t, 5)
	sp := explore(t, a, scheduler.CentralPolicy)
	d := sp.MaxShortestConvergencePath()
	if math.IsInf(d, 1) || d <= 0 {
		t.Fatalf("convergence radius = %g, want finite positive", d)
	}
	// The radius of the doctored non-converging instance is infinite.
	bad, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	spBad := explore(t, bad, scheduler.CentralPolicy)
	if !math.IsInf(spBad.MaxShortestConvergencePath(), 1) {
		t.Fatal("deadlocked instance must have infinite convergence radius")
	}
}

func TestExploreTerminalStates(t *testing.T) {
	a := mustLeaderChain(t, 2)
	sp := explore(t, a, scheduler.DistributedPolicy)
	terminals := 0
	for s := 0; s < sp.NumStates(); s++ {
		if sp.IsTerminal(s) {
			terminals++
			if !sp.Legit[s] {
				t.Fatalf("terminal state %v is illegitimate", sp.Config(s))
			}
		}
	}
	if terminals != 2 {
		// The 2-chain has exactly two oriented configurations.
		t.Fatalf("terminal states = %d, want 2", terminals)
	}
}
