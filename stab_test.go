package weakstab_test

import (
	"math/rand"
	"testing"

	"weakstab"
	"weakstab/internal/algorithms/dijkstra"
)

func TestFacadeTopologies(t *testing.T) {
	if _, err := weakstab.NewChain(4); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	g, err := weakstab.NewRandomTree(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTree() {
		t.Fatal("random tree is not a tree")
	}
}

func TestFacadeAlgorithmsAndClassify(t *testing.T) {
	alg, err := weakstab.NewTokenRing(5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := weakstab.Classify(alg, weakstab.CentralPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SelfStabilizing() || !rep.ProbabilisticallySelfStabilizing() {
		t.Fatalf("token ring class = %v, want probabilistic", rep.Strongest())
	}
	dk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = weakstab.Classify(dk, weakstab.CentralPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SelfStabilizing() {
		t.Fatalf("dijkstra class = %v, want self", rep.Strongest())
	}
}

func TestFacadeTransformAndSimulate(t *testing.T) {
	g, err := weakstab.NewChain(4)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := weakstab.NewLeaderElection(g)
	if err != nil {
		t.Fatal(err)
	}
	alg := weakstab.Transform(inner)
	rng := rand.New(rand.NewSource(3))
	res := weakstab.Simulate(alg, weakstab.SynchronousScheduler(),
		weakstab.RandomConfiguration(alg, rng), rng, 0)
	if !res.Converged {
		t.Fatal("transformed election did not converge synchronously")
	}
	res = weakstab.Simulate(alg, weakstab.DistributedScheduler(),
		weakstab.RandomConfiguration(alg, rng), rng, 0)
	if !res.Converged {
		t.Fatal("transformed election did not converge under the distributed scheduler")
	}
}

func TestFacadeStepAndFaults(t *testing.T) {
	alg, err := weakstab.NewTokenRing(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := alg.LegitimateWithTokenAt(2)
	enabled := weakstab.EnabledProcesses(alg, cfg)
	if len(enabled) != 1 || enabled[0] != 2 {
		t.Fatalf("enabled = %v", enabled)
	}
	next := weakstab.Step(alg, cfg, enabled, nil)
	if holders := alg.TokenHolders(next); holders[0] != 3 {
		t.Fatalf("token at %v, want [3]", holders)
	}
	rng := rand.New(rand.NewSource(4))
	faulted := weakstab.InjectFaults(alg, cfg, 3, rng)
	if len(faulted) != 6 {
		t.Fatal("fault injection changed configuration length")
	}
	if _, err := weakstab.NewSyncPair(); err != nil {
		t.Fatal(err)
	}
}
