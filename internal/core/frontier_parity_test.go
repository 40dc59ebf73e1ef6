package core

// Frontier parity: every subspace-native analysis — closure, possible and
// certain convergence, probability-1 reachability, hitting times — must
// agree with the full-space analysis wherever the two overlap. For a seed
// set covering the whole index range, the SubSpace *is* the Space (the
// reports must match field for field, hitting-time statistics bit-equal);
// for a proper forward-closed subspace the per-state results restricted to
// the explored states must be bit-equal (the canonical ascending-global
// local order makes the solver's arithmetic identical, not merely close).

import (
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

type parityCase struct {
	name string
	alg  protocol.Algorithm
	pol  scheduler.Policy
}

func parityMatrix(t *testing.T) []parityCase {
	t.Helper()
	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
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
	trans := transformer.New(ring5)
	return []parityCase{
		{"tokenring5/central", ring5, scheduler.CentralPolicy},
		{"tokenring5/distributed", ring5, scheduler.DistributedPolicy},
		{"tokenring5/synchronous", ring5, scheduler.SynchronousPolicy},
		{"coloring-ring4/central", col, scheduler.CentralPolicy},
		{"coloring-ring4/distributed", col, scheduler.DistributedPolicy},
		{"dijkstra4/central", dijk, scheduler.CentralPolicy},
		{"trans(tokenring5)/distributed", trans, scheduler.DistributedPolicy},
	}
}

// TestAnalyzeSubSpaceFullSeedParity: analyzing the all-seed subspace must
// reproduce the full-space report exactly, for several worker counts.
func TestAnalyzeSubSpaceFullSeedParity(t *testing.T) {
	for _, tc := range parityMatrix(t) {
		full, err := statespace.Build(tc.alg, tc.pol, statespace.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := AnalyzeSpaceContext(t.Context(), full)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seeds := make([]int64, full.States)
		for i := range seeds {
			seeds[i] = int64(i)
		}
		for _, workers := range []int{1, 4} {
			ss, err := statespace.BuildFromContext(t.Context(), tc.alg, tc.pol, seeds, statespace.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			got, err := AnalyzeSpaceContext(t.Context(), ss)
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if got.States != want.States ||
				got.Closure != want.Closure ||
				got.PossibleConvergence != want.PossibleConvergence ||
				got.CertainConvergence != want.CertainConvergence ||
				got.ProbabilisticConvergence != want.ProbabilisticConvergence ||
				got.FairLassoFound != want.FairLassoFound ||
				got.ConvergenceRadius != want.ConvergenceRadius {
				t.Fatalf("%s w=%d: report mismatch:\nfull %+v\nsub  %+v", tc.name, workers, want, got)
			}
			if got.ExpectedSteps != want.ExpectedSteps {
				t.Fatalf("%s w=%d: hitting-time summary mismatch: %+v vs %+v",
					tc.name, workers, got.ExpectedSteps, want.ExpectedSteps)
			}
			if got.Strongest() != want.Strongest() {
				t.Fatalf("%s w=%d: class %v vs %v", tc.name, workers, got.Strongest(), want.Strongest())
			}
		}
	}
}

// TestSubSpaceAnalysesBitEqualOnClosure: on a proper forward-closed
// subspace (the distance-≤1 fault ball's closure, and a singleton
// legitimate seed's closure), per-state probability-1 verdicts and hitting
// times must be bit-equal to the full space's values at the corresponding
// global states, for several worker counts.
func TestSubSpaceAnalysesBitEqualOnClosure(t *testing.T) {
	for _, tc := range parityMatrix(t) {
		full, err := statespace.Build(tc.alg, tc.pol, statespace.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fullChain, err := markov.FromSpace(full)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fullTarget := markov.TargetFromSpace(full)
		fullProbOne := fullChain.ReachesWithProbOne(fullTarget)
		fullH, err := fullChain.HittingTimes(fullTarget)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		ball, _, err := checker.FaultBallContext(t.Context(), tc.alg, 1, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seedSets := [][]int64{ball, ball[:1]} // k=1 ball; singleton legitimate seed
		for si, seeds := range seedSets {
			for _, workers := range []int{1, 4} {
				ss, err := statespace.BuildFromContext(t.Context(), tc.alg, tc.pol, seeds, statespace.Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s seeds#%d w=%d: %v", tc.name, si, workers, err)
				}
				chain, err := markov.FromSpace(ss)
				if err != nil {
					t.Fatalf("%s seeds#%d w=%d: %v", tc.name, si, workers, err)
				}
				target := markov.TargetFromSpace(ss)
				probOne := chain.ReachesWithProbOne(target)
				h, err := chain.HittingTimes(target)
				if err != nil {
					t.Fatalf("%s seeds#%d w=%d: %v", tc.name, si, workers, err)
				}
				for l := 0; l < ss.NumStates(); l++ {
					g := ss.GlobalIndex(l)
					if probOne[l] != fullProbOne[g] {
						t.Fatalf("%s seeds#%d w=%d: prob-1 mismatch at global %d", tc.name, si, workers, g)
					}
					if h[l] != fullH[g] {
						t.Fatalf("%s seeds#%d w=%d: hitting time at global %d: %g vs %g",
							tc.name, si, workers, g, h[l], fullH[g])
					}
				}
			}
		}
	}
}

// TestAnalyzeFrom covers the seed-configuration entry point of
// service.Execute (explicit -from seeds, loaded or built through the
// space cache, here the nil no-op cache): parity with the closure built
// from the encoded seed globals, and seed validation errors.
func TestAnalyzeFrom(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	var cache *spacecache.Cache
	seeds := []protocol.Configuration{{1, 1, 1, 1, 1}}
	fromCfgs, _, err := cache.BuildSubSpaceFromConfigsContext(t.Context(), ring, pol, seeds, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeSpaceContext(t.Context(), fromCfgs)
	if err != nil {
		t.Fatal(err)
	}
	globals, err := statespace.EncodeConfigs(ring, seeds)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := statespace.BuildFromContext(t.Context(), ring, pol, globals, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeSpaceContext(t.Context(), ss)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("seed-configuration report %+v differs from seed-global report %+v", got, want)
	}
	if got.States >= int(got.TotalConfigs) {
		t.Fatalf("seed closure covers the whole space (%d of %d)", got.States, got.TotalConfigs)
	}
	if _, _, err := cache.BuildSubSpaceFromConfigsContext(t.Context(), ring, pol, []protocol.Configuration{{1, 1}}, statespace.Options{}); err == nil {
		t.Fatal("short seed accepted")
	}
	if _, _, err := cache.BuildSubSpaceFromConfigsContext(t.Context(), ring, pol, nil, statespace.Options{}); err == nil {
		t.Fatal("empty seed set accepted")
	}
}
