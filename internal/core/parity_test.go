package core_test

// Parity: the Report produced via the shared parallel engine must match
// the pre-refactor two-pass results. statespace.BuildReference preserves
// the seed-era enumeration (the exact code path the checker's and the
// Markov analysis's explorers each ran before they shared one engine), so
// running the unchanged analyses over it reproduces the pre-refactor
// reports; the test pins the engine's reports to those for every
// algorithm in the library across the three scheduler policies.

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/centers"
	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/core"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

func parityInstances(t *testing.T) []protocol.Algorithm {
	t.Helper()
	ring4, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	chain4, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	chain5, err := graph.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(chain5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	col, err := coloring.New(ring4)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := herman.New(5)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := centers.NewFinder(chain4)
	if err != nil {
		t.Fatal(err)
	}
	el, err := centers.NewElector(chain4)
	if err != nil {
		t.Fatal(err)
	}
	return []protocol.Algorithm{
		tr, lt, sp, col, dk, hm, fin, el, transformer.New(tr),
	}
}

func TestAnalyzeParityWithTwoPassReference(t *testing.T) {
	policies := []scheduler.Policy{
		scheduler.CentralPolicy,
		scheduler.DistributedPolicy,
		scheduler.SynchronousPolicy,
	}
	for _, a := range parityInstances(t) {
		for _, pol := range policies {
			label := a.Name() + "/" + pol.Name()
			ref, err := statespace.BuildReference(a, pol, 0)
			if err != nil {
				t.Fatalf("%s: reference exploration: %v", label, err)
			}
			want, err := core.AnalyzeSpaceContext(t.Context(), ref)
			if err != nil {
				t.Fatalf("%s: reference analysis: %v", label, err)
			}
			ts, err := statespace.BuildContext(t.Context(), a, pol, statespace.Options{Workers: 3})
			if err != nil {
				t.Fatalf("%s: engine exploration: %v", label, err)
			}
			got, err := core.AnalyzeSpaceContext(t.Context(), ts)
			if err != nil {
				t.Fatalf("%s: engine analysis: %v", label, err)
			}
			if got.Algorithm != want.Algorithm || got.Policy != want.Policy || got.States != want.States {
				t.Fatalf("%s: header mismatch: got %s/%s/%d, want %s/%s/%d", label,
					got.Algorithm, got.Policy, got.States, want.Algorithm, want.Policy, want.States)
			}
			if got.Closure != want.Closure {
				t.Errorf("%s: closure %v, want %v", label, got.Closure, want.Closure)
			}
			if got.PossibleConvergence != want.PossibleConvergence {
				t.Errorf("%s: possible convergence %v, want %v", label, got.PossibleConvergence, want.PossibleConvergence)
			}
			if got.CertainConvergence != want.CertainConvergence {
				t.Errorf("%s: certain convergence %v, want %v", label, got.CertainConvergence, want.CertainConvergence)
			}
			if got.ProbabilisticConvergence != want.ProbabilisticConvergence {
				t.Errorf("%s: probabilistic convergence %v, want %v", label,
					got.ProbabilisticConvergence, want.ProbabilisticConvergence)
			}
			if got.FairLassoFound != want.FairLassoFound {
				t.Errorf("%s: fair lasso %v, want %v", label, got.FairLassoFound, want.FairLassoFound)
			}
			if got.Strongest() != want.Strongest() {
				t.Errorf("%s: class %s, want %s", label, got.Strongest(), want.Strongest())
			}
			if !floatEqual(got.ConvergenceRadius, want.ConvergenceRadius) {
				t.Errorf("%s: radius %g, want %g", label, got.ConvergenceRadius, want.ConvergenceRadius)
			}
			if got.ExpectedSteps.States != want.ExpectedSteps.States ||
				got.ExpectedSteps.Target != want.ExpectedSteps.Target ||
				got.ExpectedSteps.Divergent != want.ExpectedSteps.Divergent {
				t.Errorf("%s: expected-steps counts (%d,%d,%d), want (%d,%d,%d)", label,
					got.ExpectedSteps.States, got.ExpectedSteps.Target, got.ExpectedSteps.Divergent,
					want.ExpectedSteps.States, want.ExpectedSteps.Target, want.ExpectedSteps.Divergent)
			}
			if !floatEqual(got.ExpectedSteps.Mean, want.ExpectedSteps.Mean) {
				t.Errorf("%s: expected-steps mean %g, want %g", label, got.ExpectedSteps.Mean, want.ExpectedSteps.Mean)
			}
			if !floatEqual(got.ExpectedSteps.Max, want.ExpectedSteps.Max) {
				t.Errorf("%s: expected-steps max %g, want %g", label, got.ExpectedSteps.Max, want.ExpectedSteps.Max)
			}
		}
	}
}

// floatEqual compares summary statistics up to solver tolerance (both
// pipelines run the same solver over identical rows, so the slack is for
// +Inf handling and last-bit rounding only).
func floatEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}
