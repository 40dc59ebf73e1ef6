package checker

// Acceptance pin: the ball-seeded frontier path (FaultBallContext +
// BuildFromContext + BallVerdicts) must reproduce the full-space k-fault classification
// bit-for-bit — same ball sizes, same possible/certain verdicts, same
// counterexample configuration — while exploring only the ball's forward
// closure, for every algorithm × policy in the matrix and every worker
// count.

import (
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func ballMatrix(t *testing.T) []struct {
	name string
	alg  protocol.Algorithm
	pol  scheduler.Policy
} {
	t.Helper()
	ring5 := mustTokenRing(t, 5)
	ring6 := mustTokenRing(t, 6)
	ring4, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	col, err := coloring.New(ring4)
	if err != nil {
		t.Fatal(err)
	}
	dijk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		alg  protocol.Algorithm
		pol  scheduler.Policy
	}{
		{"tokenring5/central", ring5, scheduler.CentralPolicy{}},
		{"tokenring5/distributed", ring5, scheduler.DistributedPolicy{}},
		{"tokenring6/central", ring6, scheduler.CentralPolicy{}},
		{"tokenring6/synchronous", ring6, scheduler.SynchronousPolicy{}},
		{"coloring-ring4/central", col, scheduler.CentralPolicy{}},
		{"coloring-ring4/distributed", col, scheduler.DistributedPolicy{}},
		{"dijkstra4/central", dijk, scheduler.CentralPolicy{}},
	}
}

func TestBallVerdictsMatchFullSpace(t *testing.T) {
	const maxK = 2
	for _, tc := range ballMatrix(t) {
		full, err := Explore(tc.alg, tc.pol, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dist := full.DistanceToLegitimate()
		var want []KFaultVerdict
		for k := 0; k <= maxK; k++ {
			want = append(want, full.CheckKFaults(k, dist))
		}
		for _, workers := range []int{1, 4} {
			got, ballSp, err := BallVerdicts(t.Context(), tc.alg, tc.pol, maxK, statespace.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if ballSp == nil {
				t.Fatalf("%s w=%d: no ball subspace returned", tc.name, workers)
			}
			if ballSp.NumStates() > full.NumStates() {
				t.Fatalf("%s w=%d: ball closure (%d) larger than the space (%d)",
					tc.name, workers, ballSp.NumStates(), full.NumStates())
			}
			for k := 0; k <= maxK; k++ {
				g, w := got[k], want[k]
				if g.K != w.K || g.Configs != w.Configs || g.Possible != w.Possible || g.Certain != w.Certain {
					t.Fatalf("%s w=%d k=%d: ball verdict %+v, full-space verdict %+v",
						tc.name, workers, k, g, w)
				}
				switch {
				case (g.Counterexample == nil) != (w.Counterexample == nil):
					t.Fatalf("%s w=%d k=%d: counterexample presence differs", tc.name, workers, k)
				case g.Counterexample != nil && !g.Counterexample.Equal(w.Counterexample):
					t.Fatalf("%s w=%d k=%d: counterexample %v, want %v",
						tc.name, workers, k, g.Counterexample, w.Counterexample)
				}
			}
		}
	}
}

// TestFaultBallMatchesDistanceVector pins FaultBallContext's enumeration
// against the full-space distance vector: the ball is exactly the states
// with distance ≤ k, with matching distances.
func TestFaultBallMatchesDistanceVector(t *testing.T) {
	for _, tc := range ballMatrix(t) {
		full, err := Explore(tc.alg, tc.pol, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dist := full.DistanceToLegitimate()
		for k := 0; k <= 2; k++ {
			globals, ballDist, err := FaultBallContext(t.Context(), tc.alg, k, 0, 0)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			wantCount := 0
			for _, d := range dist {
				if d >= 0 && d <= k {
					wantCount++
				}
			}
			if len(globals) != wantCount {
				t.Fatalf("%s k=%d: ball has %d configs, want %d", tc.name, k, len(globals), wantCount)
			}
			prev := int64(-1)
			for i, g := range globals {
				if g <= prev {
					t.Fatalf("%s k=%d: ball not in ascending order", tc.name, k)
				}
				prev = g
				if ballDist[i] != dist[g] {
					t.Fatalf("%s k=%d: distance of global %d = %d, want %d",
						tc.name, k, g, ballDist[i], dist[g])
				}
			}
		}
	}
}

// TestFaultBallRespectsCap: the ball enumeration errors cleanly instead
// of growing past the state cap.
func TestFaultBallRespectsCap(t *testing.T) {
	a := mustTokenRing(t, 6)
	if _, _, err := FaultBallContext(t.Context(), a, 2, 0, 40); err == nil {
		t.Fatal("ball larger than the cap accepted")
	}
	// L itself has 24 configurations; a cap above the k=1 ball passes.
	globals, _, err := FaultBallContext(t.Context(), a, 1, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(globals) != 336 {
		t.Fatalf("k=1 ball has %d configs, want 336", len(globals))
	}
}
