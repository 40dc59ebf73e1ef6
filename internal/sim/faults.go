package sim

// Transient-fault plumbing shared by the Monte-Carlo engine and the
// message-passing backend (internal/netsim): burst corruption of process
// states and the recovery-time measurement loop.

import (
	"fmt"
	"math/rand"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/stats"
)

// InjectFaults returns a copy of cfg with k distinct processes' states
// replaced by uniformly random values from their domains (the paper's
// transient-fault model: process memories corrupted arbitrarily). k is
// clamped to [0, n].
func InjectFaults(a protocol.Algorithm, cfg protocol.Configuration, k int, rng *rand.Rand) protocol.Configuration {
	n := len(cfg)
	k = min(max(k, 0), n)
	out := cfg.Clone()
	perm := rng.Perm(n)
	for _, p := range perm[:k] {
		out[p] = rng.Intn(a.StateCount(p))
	}
	return out
}

// FaultRecovery runs a long execution that suffers a burst of k corrupted
// processes every faultPeriod steps and records the re-stabilization time
// after each burst. It returns the summary of recovery times and an error
// if some burst never recovered within opts.MaxSteps.
//
// The warm-up uses TrialRNG(seed, 0) and burst b uses TrialRNG(seed, b+1):
// each burst's randomness is independent of how many random draws earlier
// bursts consumed, so recovery-time sequences are stable under changes to
// the budget or the scheduler's draw count (the configuration itself still
// chains from burst to burst — that is the model).
func FaultRecovery(a protocol.Algorithm, sched scheduler.Scheduler, bursts, k, faultPeriod int, seed int64, opts Options) (stats.Summary, error) {
	if bursts < 1 {
		return stats.Summary{}, fmt.Errorf("sim: need at least one burst")
	}
	// Start from a converged state.
	warmRNG := TrialRNG(seed, 0)
	warm := Run(a, sched, protocol.RandomConfiguration(a, warmRNG), warmRNG, opts)
	if !warm.Converged {
		return stats.Summary{}, fmt.Errorf("sim: initial convergence failed for %s", a.Name())
	}
	cfg := warm.Final
	recoveries := make([]float64, 0, bursts)
	for b := 0; b < bursts; b++ {
		rng := TrialRNG(seed, b+1)
		// Let the system run legitimately for faultPeriod steps.
		cfg = Execute(a, sched, cfg, rng, faultPeriod, nil, nil).Final
		cfg = InjectFaults(a, cfg, k, rng)
		res := Run(a, sched, cfg, rng, opts)
		if !res.Converged {
			return stats.Summary{}, fmt.Errorf("sim: burst %d did not re-stabilize within %d steps", b, opts.maxSteps())
		}
		recoveries = append(recoveries, float64(res.Steps))
		cfg = res.Final
	}
	return stats.Summarize(recoveries), nil
}
