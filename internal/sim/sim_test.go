package sim

import (
	"math"
	"math/rand"
	"testing"

	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/markov"
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

func TestRunConvergesTokenRing(t *testing.T) {
	a := mustTokenRing(t, 6)
	rng := rand.New(rand.NewSource(1))
	res := Run(a, scheduler.NewCentralRandomized(), protocol.Configuration{0, 0, 0, 0, 0, 0}, rng, Options{})
	if !res.Converged {
		t.Fatal("token ring did not converge under the central randomized scheduler")
	}
	if !a.Legitimate(res.Final) {
		t.Fatal("final configuration not legitimate")
	}
	if res.Moves < res.Steps {
		t.Fatalf("moves %d < steps %d under a central scheduler", res.Moves, res.Steps)
	}
}

func TestRunStartsLegitimate(t *testing.T) {
	a := mustTokenRing(t, 5)
	res := Run(a, scheduler.NewCentralRandomized(), a.LegitimateWithTokenAt(0), rand.New(rand.NewSource(2)), Options{})
	if !res.Converged || res.Steps != 0 || res.Moves != 0 {
		t.Fatalf("result = %+v, want immediate convergence", res)
	}
}

func TestRunTerminalIllegitimate(t *testing.T) {
	// Ablation modulus: token-free deadlock is reported as non-convergence.
	a, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.LegitimateWithTokenAt(0) // token-free under m|N
	res := Run(a, scheduler.NewCentralRandomized(), cfg, rand.New(rand.NewSource(3)), Options{MaxSteps: 100})
	if res.Converged {
		t.Fatal("deadlocked run reported as converged")
	}
	if res.Steps != 0 {
		t.Fatalf("steps = %d, want 0 (immediately terminal)", res.Steps)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// Algorithm 3 under a central scheduler livelocks forever.
	a, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	res := Run(a, scheduler.NewCentralRandomized(), protocol.Configuration{0, 0}, rand.New(rand.NewSource(4)), Options{MaxSteps: 500})
	if res.Converged {
		t.Fatal("syncpair cannot converge under a central scheduler")
	}
	if res.Steps != 500 {
		t.Fatalf("steps = %d, want full budget 500", res.Steps)
	}
}

func TestTrialsMatchExactExpectation(t *testing.T) {
	// Monte-Carlo mean from a fixed configuration must match the Markov
	// hitting time: syncpair under the distributed randomized scheduler
	// from (F,F) has exact expectation 5.
	a, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	sum := 0
	for i := 0; i < trials; i++ {
		res := Run(a, scheduler.NewDistributedRandomized(), protocol.Configuration{0, 0}, TrialRNG(5, i), Options{MaxSteps: 100000})
		if !res.Converged {
			t.Fatalf("trial %d did not converge", i)
		}
		sum += res.Steps
	}
	if mean := float64(sum) / trials; math.Abs(mean-5) > 0.25 {
		t.Fatalf("Monte-Carlo mean %g, want ~5 (exact)", mean)
	}
}

func TestTrialsRandomInitial(t *testing.T) {
	a := mustTokenRing(t, 5)
	summary, failures := Trials(a, scheduler.NewDistributedRandomized(), 300, 6, Options{MaxSteps: 100000})
	if failures != 0 {
		t.Fatalf("%d failures", failures)
	}
	if summary.Count != 300 {
		t.Fatalf("count = %d", summary.Count)
	}
	// Cross-check against the exact mean hitting time over all
	// configurations (uniform initial distribution).
	ts, err := statespace.Build(a, scheduler.DistributedPolicy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromSpace(ts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chain.HittingTimes(markov.TargetFromSpace(ts))
	if err != nil {
		t.Fatal(err)
	}
	exactMean := 0.0
	for _, v := range h {
		exactMean += v
	}
	exactMean /= float64(len(h))
	if math.Abs(summary.Mean-exactMean) > 0.35*exactMean+0.5 {
		t.Fatalf("Monte-Carlo mean %g far from exact uniform mean %g", summary.Mean, exactMean)
	}
}

func TestInjectFaults(t *testing.T) {
	a := mustTokenRing(t, 6)
	rng := rand.New(rand.NewSource(7))
	cfg := a.LegitimateWithTokenAt(0)
	// k = 0: no change.
	same := InjectFaults(a, cfg, 0, rng)
	if !same.Equal(cfg) {
		t.Fatal("zero faults changed the configuration")
	}
	// Faulted states stay in domain; input unchanged.
	faulted := InjectFaults(a, cfg, 3, rng)
	if !cfg.Equal(a.LegitimateWithTokenAt(0)) {
		t.Fatal("InjectFaults mutated its input")
	}
	for p, s := range faulted {
		if s < 0 || s >= a.StateCount(p) {
			t.Fatalf("faulted state %d out of domain at %d", s, p)
		}
	}
	// k > n clamps to n; k < 0 clamps to 0.
	if all := InjectFaults(a, cfg, 100, rng); len(all) != len(cfg) {
		t.Fatalf("k > n: %d states, want %d", len(all), len(cfg))
	}
	if none := InjectFaults(a, cfg, -1, rng); !none.Equal(cfg) {
		t.Fatal("k = -1 changed the configuration")
	}
}

func TestFaultRecovery(t *testing.T) {
	a := mustTokenRing(t, 6)
	summary, err := FaultRecovery(a, scheduler.NewDistributedRandomized(), 20, 2, 10, 8, Options{MaxSteps: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if summary.Count != 20 {
		t.Fatalf("recoveries = %d, want 20", summary.Count)
	}
	if summary.Min < 0 {
		t.Fatal("negative recovery time")
	}
}

func TestFaultRecoveryValidation(t *testing.T) {
	a := mustTokenRing(t, 5)
	if _, err := FaultRecovery(a, scheduler.NewCentralRandomized(), 0, 1, 5, 9, Options{}); err == nil {
		t.Fatal("zero bursts accepted")
	}
}
