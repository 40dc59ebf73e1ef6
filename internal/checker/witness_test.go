package checker

import (
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// TestWorstCaseWitnessMatchesQuadraticReference checks the single-pass
// witness against the reference it replaced: a forward BFS (WitnessPath)
// from every state. The worst length must agree exactly; the returned
// path must be a real execution (every hop an explored transition) ending
// in L; and on systems with unconverging states both must name the same
// (lowest-index) one.
func TestWorstCaseWitnessMatchesQuadraticReference(t *testing.T) {
	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := leadertree.New(graph.Figure2Tree())
	if err != nil {
		t.Fatal(err)
	}
	dijk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		alg  protocol.Algorithm
		pol  scheduler.Policy
	}{
		{"tokenring5/central", ring5, scheduler.CentralPolicy},
		{"tokenring5/distributed", ring5, scheduler.DistributedPolicy},
		{"leadertree-fig2/synchronous", fig2, scheduler.SynchronousPolicy},
		{"dijkstra4/central", dijk, scheduler.CentralPolicy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := explore(t, tc.alg, tc.pol)
			// Quadratic reference: per-state forward BFS.
			worstLen := 0
			var noPath protocol.Configuration
			for s := 0; s < sp.NumStates(); s++ {
				path := sp.WitnessPath(sp.Config(s))
				if path == nil {
					noPath = sp.Config(s)
					break
				}
				if len(path) > worstLen {
					worstLen = len(path)
				}
			}

			path, stuck := sp.WorstCaseWitness()
			if noPath != nil {
				if stuck == nil {
					t.Fatalf("reference found unconverging %v, WorstCaseWitness found none", noPath)
				}
				if !stuck.Equal(noPath) {
					t.Fatalf("stuck = %v, reference = %v", stuck, noPath)
				}
				if sp.WitnessPath(stuck) != nil {
					t.Fatalf("claimed-stuck %v has a convergence path", stuck)
				}
				return
			}
			if stuck != nil {
				t.Fatalf("WorstCaseWitness claims %v cannot converge, but every state can", stuck)
			}
			if len(path) != worstLen {
				t.Fatalf("witness length %d, reference worst %d", len(path), worstLen)
			}
			// The path must be a real execution ending in L.
			last := path[len(path)-1]
			if !sp.Algorithm().Legitimate(last) {
				t.Fatalf("witness ends outside L: %v", last)
			}
			for i := 0; i+1 < len(path); i++ {
				s, ok := sp.StateOf(path[i])
				if !ok {
					t.Fatalf("witness state %v not explored", path[i])
				}
				tgt, ok := sp.StateOf(path[i+1])
				if !ok {
					t.Fatalf("witness state %v not explored", path[i+1])
				}
				found := false
				for _, u := range sp.Succ(int(s)) {
					if u == tgt {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("witness hop %v -> %v is not an explored transition", path[i], path[i+1])
				}
			}
		})
	}
}
