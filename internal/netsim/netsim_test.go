package netsim

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/sim"
	"weakstab/internal/statespace"
)

// syncHittingTimes computes the exact per-state hitting times of a under
// the synchronous daemon.
func syncHittingTimes(t *testing.T, a protocol.Algorithm) (*statespace.Space, []float64) {
	t.Helper()
	sp, err := statespace.Build(a, scheduler.SynchronousPolicy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromSpace(sp)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chain.HittingTimes(markov.TargetFromSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	return sp, h
}

// TestSyncParityDijkstra pins the validation anchor of the whole backend:
// a fault-free network with one-round latency is step-for-step the
// synchronous daemon. Dijkstra's rooted ring self-stabilizes under every
// daemon, so its synchronous chain is deterministic with a finite integral
// hitting time from EVERY configuration — and the netsim convergence round
// must equal it exactly, state by state.
func TestSyncParityDijkstra(t *testing.T) {
	a, err := dijkstra.New(5, 5) // 5^5 = 3125 configurations, all converge
	if err != nil {
		t.Fatal(err)
	}
	sp, h := syncHittingTimes(t, a)
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	cfg := make(protocol.Configuration, 5)
	for g := int64(0); g < sp.Enc.Total(); g += 3 { // subsample: ~1042 states
		cfg = sp.Enc.Decode(g, cfg)
		if math.IsInf(h[g], 1) {
			t.Fatalf("state %d: dijkstra must converge under the synchronous daemon", g)
		}
		res, err := RunOnContext(t.Context(), top, a, cfg, Options{MaxRounds: 500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || float64(res.Rounds) != h[g] {
			t.Fatalf("state %d: netsim rounds %d (converged=%v), exact synchronous hitting time %g",
				g, res.Rounds, res.Converged, h[g])
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d states checked", checked)
	}
}

// TestSyncParityTokenRingDivergence pins the other half of the anchor: the
// anonymous token ring in lockstep never merges its tokens, so the exact
// synchronous analysis declares every illegitimate state divergent — and
// netsim must agree (budget exhaustion) on a subsample, while legitimate
// states converge at round 0 exactly as h = 0 says.
func TestSyncParityTokenRingDivergence(t *testing.T) {
	a, err := tokenring.New(6) // 4^6 = 4096 configurations
	if err != nil {
		t.Fatal(err)
	}
	sp, h := syncHittingTimes(t, a)
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	finite, divergent := 0, 0
	cfg := make(protocol.Configuration, 6)
	for g := int64(0); g < sp.Enc.Total(); g += 11 { // subsample: ~373 states
		cfg = sp.Enc.Decode(g, cfg)
		res, err := RunOnContext(t.Context(), top, a, cfg, Options{MaxRounds: 300, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(h[g], 1) {
			divergent++
			if res.Converged {
				t.Fatalf("state %d: exact analysis says divergent under the synchronous daemon, netsim converged in %d rounds", g, res.Rounds)
			}
			continue
		}
		finite++
		if h[g] != 0 {
			t.Fatalf("state %d: finite synchronous hitting time %g on the anonymous ring should only occur at h=0", g, h[g])
		}
		if !res.Converged || res.Rounds != 0 {
			t.Fatalf("legitimate state %d: netsim rounds %d (converged=%v), want immediate convergence", g, res.Rounds, res.Converged)
		}
	}
	if divergent == 0 {
		t.Fatal("degenerate subsample: no divergent states")
	}
}

// TestSyncParityHerman validates the probabilistic path statistically:
// the empirical mean convergence round of netsim trials from uniformly
// random starts must agree with the exact uniform-start mean hitting time
// of Herman's ring within confidence bounds (fixed seed — no flake).
func TestSyncParityHerman(t *testing.T) {
	a, err := herman.New(7) // 2^7 = 128 configurations
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Build(a, scheduler.SynchronousPolicy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromSpace(sp)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chain.HittingTimes(markov.TargetFromSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	exact := 0.0
	for _, v := range h {
		if math.IsInf(v, 1) {
			t.Fatal("herman must converge from every configuration")
		}
		exact += v
	}
	exact /= float64(len(h))

	const trials = 600
	res, err := TrialsContext(t.Context(), a, trials, Options{MaxRounds: 100_000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d trials failed to converge", res.Failures)
	}
	se := res.Summary.Std / math.Sqrt(float64(trials))
	if diff := math.Abs(res.Summary.Mean - exact); diff > 4*se+0.05 {
		t.Fatalf("empirical mean %g vs exact uniform-start mean %g: |diff| %g > 4·SE %g",
			res.Summary.Mean, exact, diff, 4*se)
	}
}

// faultStack builds a fresh full fault stack (counters start at zero) so
// runs can be compared counter-for-counter.
func faultStack() []Fault {
	return []Fault{
		&Latency{D: Uniform{Lo: 1, Hi: 3}},
		&GilbertElliott{PGB: 0.05, PBG: 0.3, LossGood: 0.01, LossBad: 0.5},
		&Loss{P: 0.05},
		&Duplicate{P: 0.1},
		&Reorder{P: 0.1, Bound: 4},
		&Corrupt{P: 0.02},
		&CrashRecover{Rate: 0.002, MeanDown: 3},
	}
}

// TestDeterminismAcrossSharding pins the reproducibility contract: the same
// (topology, faults, seed) produces a bit-identical execution — canonical
// event trace, message counters, fault counters, final configuration and
// convergence round — no matter how the event loop is sharded or how many
// workers drive it.
func TestDeterminismAcrossSharding(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	init := protocol.RandomConfiguration(a, sim.TrialRNG(7, 0))

	type outcome struct {
		res    Result
		counts []Count
	}
	run := func(workers, shards int) outcome {
		faults := faultStack()
		res, err := RunOnContext(t.Context(), top, a, init, Options{
			MaxRounds: 60, Seed: 99, Faults: faults,
			Workers: workers, Shards: shards, Record: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res: res, counts: FaultCounts(faults)}
	}

	ref := run(1, 1)
	if ref.res.Sent == 0 {
		t.Fatal("reference run sent no messages")
	}
	for _, ws := range [][2]int{{2, 3}, {8, 4}, {3, 64}} {
		got := run(ws[0], ws[1])
		if got.res.Converged != ref.res.Converged || got.res.Rounds != ref.res.Rounds {
			t.Fatalf("workers=%d shards=%d: (converged=%v rounds=%d), reference (%v, %d)",
				ws[0], ws[1], got.res.Converged, got.res.Rounds, ref.res.Converged, ref.res.Rounds)
		}
		if !got.res.Final.Equal(ref.res.Final) {
			t.Fatalf("workers=%d shards=%d: final configuration differs", ws[0], ws[1])
		}
		if got.res.Sent != ref.res.Sent || got.res.Delivered != ref.res.Delivered || got.res.DroppedCrash != ref.res.DroppedCrash {
			t.Fatalf("workers=%d shards=%d: counters (%d,%d,%d), reference (%d,%d,%d)",
				ws[0], ws[1], got.res.Sent, got.res.Delivered, got.res.DroppedCrash,
				ref.res.Sent, ref.res.Delivered, ref.res.DroppedCrash)
		}
		if len(got.counts) != len(ref.counts) {
			t.Fatalf("fault counter shape differs")
		}
		for i := range got.counts {
			if got.counts[i] != ref.counts[i] {
				t.Fatalf("workers=%d shards=%d: fault counter %s=%d, reference %s=%d",
					ws[0], ws[1], got.counts[i].Name, got.counts[i].N, ref.counts[i].Name, ref.counts[i].N)
			}
		}
		if len(got.res.Trace) != len(ref.res.Trace) {
			t.Fatalf("workers=%d shards=%d: trace length %d, reference %d",
				ws[0], ws[1], len(got.res.Trace), len(ref.res.Trace))
		}
		for i := range got.res.Trace {
			if got.res.Trace[i] != ref.res.Trace[i] {
				t.Fatalf("workers=%d shards=%d: trace[%d] = %v, reference %v",
					ws[0], ws[1], i, got.res.Trace[i], ref.res.Trace[i])
			}
		}
	}
}

// TestFaultyNetworkConverges exercises the full stack end to end: coloring
// on a ring under loss, latency jitter, duplication, reorder, corruption
// and crash-recover still re-stabilizes, and the trial batch reports a
// nonempty distribution.
func TestFaultyNetworkConverges(t *testing.T) {
	g, err := graph.Ring(128)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restabilization(a, 8, 16, Options{
		MaxRounds: 3000, Seed: 5,
		Faults: []Fault{
			&Latency{D: Uniform{Lo: 1, Hi: 2}},
			&Loss{P: 0.1},
			&Duplicate{P: 0.05},
			&Reorder{P: 0.05, Bound: 3},
			&CrashRecover{Rate: 0.001, MeanDown: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d of 8 faulty-network trials failed to re-stabilize", res.Failures)
	}
	if len(res.CDF) == 0 || res.Summary.Count != 8 {
		t.Fatalf("missing distribution: %+v", res.Summary)
	}
	if res.Sent == 0 || res.Delivered == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestTrialsReplayable pins the per-trial seeding contract: a batch is
// reproducible wholesale, and any single trial replays in isolation from
// sim.TrialSeed(seed, i) without running its predecessors.
func TestTrialsReplayable(t *testing.T) {
	g, err := graph.Ring(32)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxRounds: 2000, Seed: 13, Faults: []Fault{&Loss{P: 0.15}}}
	first, err := TrialsContext(t.Context(), a, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts2 := Options{MaxRounds: 2000, Seed: 13, Faults: []Fault{&Loss{P: 0.15}}}
	second, err := TrialsContext(t.Context(), a, 10, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rounds) != len(second.Rounds) {
		t.Fatalf("batch sizes differ: %d vs %d", len(first.Rounds), len(second.Rounds))
	}
	for i := range first.Rounds {
		if first.Rounds[i] != second.Rounds[i] {
			t.Fatalf("trial %d: %g vs %g on identical seeds", i, first.Rounds[i], second.Rounds[i])
		}
	}
	// Replay trial 3 in isolation.
	seed3 := sim.TrialSeed(13, 3)
	init := protocol.RandomConfiguration(a, sim.TrialRNG(13, 3))
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnContext(t.Context(), top, a, init, Options{MaxRounds: 2000, Seed: seed3, Faults: []Fault{&Loss{P: 0.15}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || float64(res.Rounds) != first.Rounds[3] {
		t.Fatalf("isolated replay of trial 3: rounds %d (converged=%v), batch recorded %g",
			res.Rounds, res.Converged, first.Rounds[3])
	}
}

// TestValidationErrors pins the constructor and option validation paths.
func TestValidationErrors(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOnContext(t.Context(), top, a, make(protocol.Configuration, 3), Options{}); err == nil {
		t.Fatal("short initial configuration accepted")
	}
	bad := make(protocol.Configuration, 8)
	bad[0] = 99
	if _, err := RunOnContext(t.Context(), top, a, bad, Options{}); err == nil {
		t.Fatal("out-of-domain initial state accepted")
	}
	if _, err := RunOnContext(t.Context(), top, a, make(protocol.Configuration, 8), Options{Faults: []Fault{badFault{}}}); err == nil {
		t.Fatal("fault implementing neither role accepted")
	}
	// Herman requires odd rings; restabilization on an even one must fail
	// before simulating (empty legitimate sets are impossible for coloring,
	// so use the tokenring ablation).
	abl, err := tokenring.NewWithModulus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restabilization(abl, 1, 1, Options{}); err == nil {
		t.Fatal("empty legitimate set accepted")
	}
}

type badFault struct{}

func (badFault) Name() string            { return "bad" }
func (badFault) Reset(*Topology, Stream) {}

// TestLargeRingRestabilization is the scale smoke: 10^5 coloring processes
// on a ring, 1000 corrupted by a transient burst, re-stabilizing over a
// lossy network — the whole run within the CI budget, with a reported CDF.
func TestLargeRingRestabilization(t *testing.T) {
	if testing.Short() {
		t.Skip("large-instance smoke skipped in -short mode")
	}
	const n = 100_000
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Restabilization(a, 3, 1000, Options{
		MaxRounds: 2000, Seed: 2026, CheckEvery: 2,
		Faults: []Fault{&Loss{P: 0.05}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d of 3 large-ring trials failed to re-stabilize within 2000 rounds", res.Failures)
	}
	if len(res.CDF) == 0 {
		t.Fatal("no re-stabilization CDF")
	}
	if res.Summary.Max >= 2000 {
		t.Fatalf("re-stabilization suspiciously slow: %s", res.Summary)
	}
	t.Logf("n=%d k=1000 loss=5%%: %s", n, res.Summary)
	t.Logf("CDF: %v", res.CDF)
}
