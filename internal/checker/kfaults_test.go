package checker

import (
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func TestDistanceToLegitimateTokenRing(t *testing.T) {
	a := mustTokenRing(t, 5)
	sp := explore(t, a, scheduler.CentralPolicy)
	dist := sp.DistanceToLegitimate()
	// Distance 0 exactly on L.
	for s := 0; s < sp.NumStates(); s++ {
		if (dist[s] == 0) != sp.Legit[s] {
			t.Fatalf("distance 0 mismatch at %v", sp.Config(s))
		}
		if dist[s] < 0 {
			t.Fatalf("unreachable distance at %v", sp.Config(s))
		}
		if dist[s] > a.Graph().N() {
			t.Fatalf("distance %d exceeds N at %v", dist[s], sp.Config(s))
		}
	}
	// A single corrupted process is at distance exactly 1.
	legit := a.LegitimateWithTokenAt(0)
	corrupted := legit.Clone()
	corrupted[2] = (corrupted[2] + 1) % a.Modulus()
	if a.Legitimate(corrupted) {
		t.Skip("corruption landed in L; adjust test")
	}
	corruptedIdx, _ := sp.StateOf(corrupted)
	if d := dist[corruptedIdx]; d != 1 {
		t.Fatalf("single-fault distance = %d, want 1", d)
	}
}

func TestDistanceTriangleUnderMutation(t *testing.T) {
	// Changing one process's state changes the distance by at most 1.
	a := mustTokenRing(t, 4)
	sp := explore(t, a, scheduler.CentralPolicy)
	dist := sp.DistanceToLegitimate()
	cfg := make(protocol.Configuration, 4)
	for s := 0; s < sp.NumStates(); s++ {
		cfg = sp.ConfigInto(s, cfg)
		for p := 0; p < 4; p++ {
			orig := cfg[p]
			for v := 0; v < a.StateCount(p); v++ {
				if v == orig {
					continue
				}
				cfg[p] = v
				mutIdx, _ := sp.StateOf(cfg)
				d2 := dist[mutIdx]
				if d2 < dist[s]-1 || d2 > dist[s]+1 {
					t.Fatalf("mutation distance jump %d -> %d", dist[s], d2)
				}
			}
			cfg[p] = orig
		}
	}
}

func TestKFaultsDijkstraAlwaysCertain(t *testing.T) {
	// A self-stabilizing algorithm is k-stabilizing for every k.
	a, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := explore(t, a, scheduler.CentralPolicy)
	for k, v := range BallVerdictsOver(sp.Space, sp.DistanceToLegitimate(), 4) {
		if !v.Possible || !v.Certain {
			t.Fatalf("k=%d: possible=%v certain=%v, want both", k, v.Possible, v.Certain)
		}
	}
}

func TestKFaultsTokenRingCertainFailsBeyondZero(t *testing.T) {
	// Algorithm 1 is not deterministically k-stabilizing for any k >= 1:
	// one corrupted process can already yield two alternating tokens.
	a := mustTokenRing(t, 6)
	sp := explore(t, a, scheduler.CentralPolicy)
	verdicts := BallVerdictsOver(sp.Space, sp.DistanceToLegitimate(), 1)
	zero, one := verdicts[0], verdicts[1]
	if !zero.Certain || !zero.Possible {
		t.Fatal("k=0 (legitimate set) must trivially converge")
	}
	if !one.Possible {
		t.Fatal("possible convergence must hold within one fault")
	}
	if one.Certain {
		t.Fatal("one fault already admits diverging executions")
	}
	if one.Counterexample == nil {
		t.Fatal("missing counterexample")
	}
	if one.Configs <= zero.Configs {
		t.Fatalf("k=1 ball (%d) must exceed k=0 ball (%d)", one.Configs, zero.Configs)
	}
}

func TestKFaultsMonotoneInK(t *testing.T) {
	a := mustTokenRing(t, 5)
	sp := explore(t, a, scheduler.DistributedPolicy)
	verdicts := BallVerdictsOver(sp.Space, sp.DistanceToLegitimate(), 5)
	prevConfigs := 0
	prevCertain := true
	for k, v := range verdicts {
		if v.Configs < prevConfigs {
			t.Fatalf("ball size shrank at k=%d", k)
		}
		if !prevCertain && v.Certain {
			t.Fatalf("certain convergence recovered at larger k=%d", k)
		}
		prevConfigs = v.Configs
		prevCertain = v.Certain
	}
	if full := verdicts[5]; full.Configs != sp.NumStates() {
		t.Fatalf("k=N ball covers %d of %d states", full.Configs, sp.NumStates())
	}
}
