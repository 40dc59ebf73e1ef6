package core

import (
	"math"
	"strings"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// analyzeFull explores the full configuration space of a under pol and
// classifies it — the explore-then-analyze order of service.Execute.
func analyzeFull(t testing.TB, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options) (*Report, error) {
	t.Helper()
	ts, err := statespace.BuildContext(t.Context(), a, pol, opt)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	return AnalyzeSpaceContext(t.Context(), ts)
}

func analyze(t *testing.T, a protocol.Algorithm, pol scheduler.Policy) *Report {
	t.Helper()
	rep, err := analyzeFull(t, a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckHierarchy(); err != nil {
		t.Fatalf("hierarchy violated: %v", err)
	}
	return rep
}

func TestTokenRingClassification(t *testing.T) {
	// Algorithm 1 on a 6-ring: weak-stabilizing, probabilistically
	// self-stabilizing under the randomized scheduler (Theorem 7 route),
	// NOT deterministically self-stabilizing (Theorem 6), with a strongly
	// fair diverging lasso.
	a, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, a, scheduler.CentralPolicy)
	if rep.Strongest() != ClassProbabilistic {
		t.Fatalf("classification = %v, want probabilistic", rep.Strongest())
	}
	if !rep.WeakStabilizing() || !rep.ProbabilisticallySelfStabilizing() || rep.SelfStabilizing() {
		t.Fatalf("verdicts wrong: %+v", rep)
	}
	if !rep.FairLassoFound {
		t.Fatal("Theorem 6's strongly fair lasso not found")
	}
	if rep.ExpectedSteps.Mean <= 0 {
		t.Fatal("expected stabilization time missing")
	}
	if math.IsInf(rep.ConvergenceRadius, 1) {
		t.Fatal("convergence radius should be finite")
	}
}

func TestDijkstraClassification(t *testing.T) {
	a, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, a, scheduler.CentralPolicy)
	if rep.Strongest() != ClassSelf {
		t.Fatalf("classification = %v, want self-stabilizing", rep.Strongest())
	}
	if rep.FairLassoFound {
		t.Fatal("self-stabilizing algorithm cannot diverge fairly")
	}
}

func TestSyncpairClassifications(t *testing.T) {
	a, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	// Central: cannot even possibly converge.
	central := analyze(t, a, scheduler.CentralPolicy)
	if central.Strongest() != ClassNone {
		t.Fatalf("central classification = %v, want none", central.Strongest())
	}
	// Distributed: weak and probabilistically self-stabilizing.
	dist := analyze(t, a, scheduler.DistributedPolicy)
	if dist.Strongest() != ClassProbabilistic {
		t.Fatalf("distributed classification = %v, want probabilistic", dist.Strongest())
	}
	// Synchronous: deterministic convergence in <= 2 steps.
	sync := analyze(t, a, scheduler.SynchronousPolicy)
	if sync.Strongest() != ClassSelf {
		t.Fatalf("synchronous classification = %v, want self", sync.Strongest())
	}
	if sync.ConvergenceRadius != 2 {
		t.Fatalf("synchronous radius = %g, want 2", sync.ConvergenceRadius)
	}
}

func TestLeaderTreeSynchronousNotWeak(t *testing.T) {
	g, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, a, scheduler.SynchronousPolicy)
	if rep.Strongest() != ClassNone {
		t.Fatalf("synchronous Algorithm 2 = %v, want none (Figure 3)", rep.Strongest())
	}
	// Transformed it becomes probabilistically self-stabilizing
	// (Theorem 8), the central claim of §4.
	trans := analyze(t, transformer.New(a), scheduler.SynchronousPolicy)
	if !trans.ProbabilisticallySelfStabilizing() {
		t.Fatal("transformed Algorithm 2 must converge w.p. 1 synchronously")
	}
	if trans.SelfStabilizing() {
		t.Fatal("transformed Algorithm 2 is probabilistic, not certain")
	}
}

func TestTheorem5ConsistencyOnInstances(t *testing.T) {
	// Theorem 5 + Theorem 7: every finite deterministic weak-stabilizing
	// instance must be probabilistically self-stabilizing under the
	// randomized scheduler. Check across the library's deterministic
	// algorithms and policies.
	g4, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(g4)
	if err != nil {
		t.Fatal(err)
	}
	tr5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	algs := []protocol.Algorithm{lt, tr5, sp}
	pols := []scheduler.Policy{scheduler.CentralPolicy, scheduler.DistributedPolicy, scheduler.SynchronousPolicy}
	for _, a := range algs {
		for _, pol := range pols {
			rep := analyze(t, a, pol)
			if rep.WeakStabilizing() && !rep.ProbabilisticallySelfStabilizing() {
				t.Fatalf("%s under %s: weak-stabilizing but not probabilistically self-stabilizing (contradicts Thm 5+7)",
					a.Name(), pol.Name())
			}
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassSelf:          "deterministic self-stabilizing",
		ClassProbabilistic: "probabilistically self-stabilizing",
		ClassWeak:          "weak-stabilizing",
		ClassNone:          "not stabilizing",
		Class(99):          "Class(99)",
	} {
		if c.String() != want {
			t.Fatalf("Class(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestReportString(t *testing.T) {
	a, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	rep := analyze(t, a, scheduler.CentralPolicy)
	out := rep.String()
	for _, want := range []string{"tokenring(n=4,m=3)", "strong closure", "classification", "expected stabilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestCheckHierarchyCatchesInconsistency(t *testing.T) {
	bad := &Report{Closure: true, CertainConvergence: true, ProbabilisticConvergence: false}
	if err := bad.CheckHierarchy(); err == nil {
		t.Fatal("inconsistent report accepted")
	}
	bad2 := &Report{ProbabilisticConvergence: true, PossibleConvergence: false}
	if err := bad2.CheckHierarchy(); err == nil {
		t.Fatal("inconsistent report accepted")
	}
	bad3 := &Report{CertainConvergence: true, ProbabilisticConvergence: true, PossibleConvergence: true, FairLassoFound: true}
	if err := bad3.CheckHierarchy(); err == nil {
		t.Fatal("fair lasso + certain convergence accepted")
	}
}
