package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/sim"
	"weakstab/internal/stats"
)

// TrialResult aggregates a batch of simulated executions.
type TrialResult struct {
	// Rounds holds the convergence (or re-stabilization) round of every
	// converged trial, in trial order.
	Rounds []float64
	// Summary summarizes Rounds; CDF is its empirical distribution at the
	// default quantiles. Both cover the converged trials only — renderers
	// must surface Failures alongside them (stats.Summary.StringOf prints
	// the censoring denominator) rather than present the statistics as
	// whole-batch.
	Summary stats.Summary
	CDF     []stats.CDFPoint
	// Failures counts trials that exhausted the round budget.
	Failures int
	// Sent/Delivered/DroppedCrash accumulate the message counters over
	// all trials.
	Sent, Delivered, DroppedCrash int64
}

func (t *TrialResult) observe(res Result) {
	t.Sent += res.Sent
	t.Delivered += res.Delivered
	t.DroppedCrash += res.DroppedCrash
	if !res.Converged {
		t.Failures++
		return
	}
	t.Rounds = append(t.Rounds, float64(res.Rounds))
}

func (t *TrialResult) finish() {
	sorted := slices.Clone(t.Rounds)
	slices.Sort(sorted)
	t.Summary = stats.SummarizeSorted(sorted)
	t.CDF = stats.CDFSorted(sorted, nil)
}

// observeTrial emits one netsim.trial progress event (batch position, the
// trial's own derived seed for standalone replay) and re-homes the fault
// stack's private event counters onto the registry as netsim.fault.*
// gauges. Fault counters accumulate across the batch's runs, so gauges —
// set to the latest cumulative value — mirror them exactly.
func observeTrial(o *obs.Observer, trial, of int, seed int64, res Result, faults []Fault) {
	if !o.On() {
		return
	}
	o.Emit("netsim.trial", obs.NetsimTrial{Trial: trial, Of: of, Rounds: res.Rounds, Converged: res.Converged, Seed: seed})
	for _, c := range FaultCounts(faults) {
		o.Gauge("netsim.fault." + c.Name).Set(c.N)
	}
}

// TrialsContext runs `trials` executions from uniformly random initial
// configurations over the configured network. Trial i derives its own
// seed from (opts.Seed, i) — sim.TrialSeed — so any single trial is
// replayable in isolation and results never depend on batch order. ctx is
// checked at trial boundaries (and within each run at its
// legitimacy-check rounds), so a cancelled batch returns an error
// wrapping ctx.Err() without finishing the remaining trials.
func TrialsContext(ctx context.Context, a protocol.Algorithm, trials int, opts Options) (TrialResult, error) {
	return runTrials(ctx, a, trials, opts, func(rng *rand.Rand) protocol.Configuration {
		return protocol.RandomConfiguration(a, rng)
	})
}

// Restabilization measures recovery under an unsupportive network: every
// trial starts from a legitimate configuration with k process states
// corrupted uniformly at random (the paper's transient-fault model) and
// runs until the system is legitimate again. The base legitimate
// configuration is the first one yielded by the algorithm's closed-form
// LegitEnumerator, which the algorithm must implement.
func Restabilization(a protocol.Algorithm, trials, k int, opts Options) (TrialResult, error) {
	return RestabilizationContext(context.Background(), a, trials, k, opts)
}

// RestabilizationContext is Restabilization with TrialsContext's
// trial-boundary cancellation semantics.
func RestabilizationContext(ctx context.Context, a protocol.Algorithm, trials, k int, opts Options) (TrialResult, error) {
	le, ok := a.(protocol.LegitEnumerator)
	if !ok {
		return TrialResult{}, fmt.Errorf("netsim: %s has no LegitEnumerator to draw a legitimate base configuration from", a.Name())
	}
	var legit protocol.Configuration
	le.EnumerateLegitimate(func(cfg protocol.Configuration) bool {
		legit = cfg.Clone()
		return false
	})
	if legit == nil {
		return TrialResult{}, fmt.Errorf("netsim: %s has an empty legitimate set", a.Name())
	}
	if !a.Legitimate(legit) {
		return TrialResult{}, fmt.Errorf("netsim: base configuration %v is not legitimate", legit)
	}
	return runTrials(ctx, a, trials, opts, func(rng *rand.Rand) protocol.Configuration {
		return sim.InjectFaults(a, legit, k, rng)
	})
}

// runTrials is the one trial loop: trial i runs from start's configuration,
// drawn from a generator seeded with the trial's own seed.
func runTrials(ctx context.Context, a protocol.Algorithm, trials int, opts Options, start func(*rand.Rand) protocol.Configuration) (TrialResult, error) {
	t, err := NewTopology(a)
	if err != nil {
		return TrialResult{}, err
	}
	o := obs.Or(opts.Obs)
	var out TrialResult
	for i := 0; i < trials; i++ {
		topts := opts
		topts.Seed = sim.TrialSeed(opts.Seed, i)
		topts.Trial = i
		res, err := RunOnContext(ctx, t, a, start(rand.New(rand.NewSource(topts.Seed))), topts)
		if err != nil {
			return TrialResult{}, err
		}
		out.observe(res)
		observeTrial(o, i, trials, topts.Seed, res, opts.Faults)
	}
	out.finish()
	return out, nil
}
