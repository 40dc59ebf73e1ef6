package checker

import (
	"testing"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func TestStronglyFairLassoIsNotGoudaFair(t *testing.T) {
	// Theorem 6, decided directly: the machine-found strongly fair
	// diverging lasso of the 6-ring omits transitions (e.g. merging
	// moves), so it is not Gouda fair.
	a := mustTokenRing(t, 6)
	sp := explore(t, a, scheduler.CentralPolicy)
	lasso := sp.FindStronglyFairLasso()
	if !lasso.Found {
		t.Fatal("no strongly fair lasso")
	}
	if sp.GoudaFairLasso(lasso.Cycle) {
		t.Fatal("diverging lasso is Gouda fair — contradicts Theorem 5")
	}
}

func TestGoudaFairLassoWithinLegitimateSet(t *testing.T) {
	// The legitimate token circulation takes its unique transition every
	// step: the full 1-token rotation is a Gouda-fair lasso.
	a := mustTokenRing(t, 5)
	sp := explore(t, a, scheduler.CentralPolicy)
	var cycle []protocol.Configuration
	cfg := a.LegitimateWithTokenAt(0)
	for i := 0; i < 5*a.Modulus(); i++ { // full period of the rotation
		cycle = append(cycle, cfg)
		holders := a.TokenHolders(cfg)
		cfg = protocol.Step(a, cfg, holders, nil)
		if cfg.Equal(cycle[0]) {
			break
		}
	}
	if !cfg.Equal(cycle[0]) {
		t.Fatalf("rotation did not close after %d steps", len(cycle))
	}
	if !sp.GoudaFairLasso(cycle) {
		t.Fatal("the legitimate rotation must be Gouda fair (unique transitions)")
	}
}

func TestGoudaFairLassoEmptyAndPartial(t *testing.T) {
	a := mustTokenRing(t, 4)
	sp := explore(t, a, scheduler.CentralPolicy)
	if !sp.GoudaFairLasso(nil) {
		t.Fatal("empty lasso is vacuously Gouda fair")
	}
	// A 2-token configuration has two outgoing transitions; a lasso taking
	// only one cannot be Gouda fair. Construct the two-token alternation's
	// single-choice cycle artificially: <0 0 1 1> tokens at 1 and 3
	// (m=3): find a two-token configuration and loop one move in & out.
	cfg := protocol.Configuration{0, 0, 0, 0}
	if len(a.TokenHolders(cfg)) < 2 {
		t.Skip("setup lost its tokens")
	}
	holders := a.TokenHolders(cfg)
	next := protocol.Step(a, cfg, holders[:1], nil)
	if a.Legitimate(cfg) || a.Legitimate(next) {
		t.Skip("setup converged")
	}
	back := sp.GoudaFairLasso([]protocol.Configuration{cfg, next})
	if back {
		t.Fatal("partial-transition lasso reported Gouda fair")
	}
}

func TestNoGoudaFairDivergenceOnWeakStabilizers(t *testing.T) {
	// Theorem 5 mechanically: weak-stabilizing systems admit no Gouda-fair
	// diverging lasso.
	g, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	algs := []protocol.Algorithm{mustTokenRing(t, 5), mustTokenRing(t, 6), lt}
	for _, a := range algs {
		for _, pol := range []scheduler.Policy{scheduler.CentralPolicy, scheduler.DistributedPolicy} {
			sp := explore(t, a, pol)
			if witness, ok := sp.NoGoudaFairDivergence(); !ok {
				t.Fatalf("%s under %s: Gouda-fair divergence possible at %v (refutes Thm 5)",
					a.Name(), pol.Name(), witness)
			}
		}
	}
}

func TestGoudaFairDivergenceExistsWhenNotWeakStabilizing(t *testing.T) {
	// With a modulus dividing N the ring deadlocks outside L; the check
	// must report the failure.
	a, err := tokenring.NewWithModulus(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	sp := explore(t, a, scheduler.SynchronousPolicy)
	res := sp.CheckPossibleConvergence()
	if res.Holds {
		t.Skip("instance unexpectedly weak-stabilizing; pick another ablation")
	}
	if _, ok := sp.NoGoudaFairDivergence(); ok {
		t.Fatal("non-weak-stabilizing instance must admit Gouda-fair divergence")
	}
}
