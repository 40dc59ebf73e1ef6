// Package sim is the Monte-Carlo engine: it runs algorithms under online
// schedulers from arbitrary initial configurations, measures convergence
// times, and injects transient faults to exercise re-stabilization — the
// empirical counterpart of the exact Markov analysis for instances too
// large to enumerate.
//
// Execute is the one loop that steps an online execution, alternating the
// scheduler's Select with protocol.Step: Run, Trials and FaultRecovery
// here, trace.Record and experiment E16's elections all run on it.
//
// sim runs online schedulers, including the ones with memory (round-robin,
// lex-min), and configurations too large to explore (E12b/E12d);
// internal/mc walks an already explored chain.
package sim

import (
	"math/rand"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/stats"
)

// Result reports one run.
type Result struct {
	// Converged is true if the run stopped because its stop predicate
	// held; for Run, a legitimate configuration was reached within the
	// step budget (the initial configuration counts).
	Converged bool
	// Steps is the number of scheduler steps taken until convergence (or
	// the full budget when Converged is false).
	Steps int
	// Moves is the total number of process activations.
	Moves int
	// Rounds counts asynchronous rounds: a round ends once every process
	// enabled at its start has executed or become disabled — the
	// self-stabilization literature's time unit that normalizes scheduler
	// granularity (a synchronous step is exactly one round).
	Rounds int
	// Final is the last configuration.
	Final protocol.Configuration
}

// roundTracker implements the standard round measure. A process is
// pending — enabled at the round's start, and neither executed nor
// disabled since — exactly when its stamp equals the current step.
type roundTracker struct {
	stamp        []int
	step, rounds int
}

func newRoundTracker(n int, enabled []int) roundTracker {
	t := roundTracker{stamp: make([]int, n), step: 1}
	for _, p := range enabled {
		t.stamp[p] = t.step
	}
	return t
}

// observe accounts one step: chosen processes executed; enabledAfter is
// the post-step enabled set. Processes that executed or are no longer
// enabled leave the pending set; when it empties, a round completes and
// the next one starts with enabledAfter.
func (t *roundTracker) observe(chosen, enabledAfter []int) {
	for _, p := range chosen {
		t.stamp[p] = 0
	}
	t.step++
	pending := 0
	for _, p := range enabledAfter {
		if t.stamp[p] == t.step-1 {
			t.stamp[p] = t.step
			pending++
		}
	}
	if pending == 0 {
		t.rounds++
		for _, p := range enabledAfter {
			t.stamp[p] = t.step
		}
	}
}

// Options tunes a run. The zero value is ready to use.
type Options struct {
	// MaxSteps bounds the run; 0 means 1_000_000.
	MaxSteps int
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 1_000_000
	}
	return o.MaxSteps
}

// Run executes the algorithm under the scheduler from init until a
// legitimate configuration is reached or the budget is exhausted.
func Run(a protocol.Algorithm, sched scheduler.Scheduler, init protocol.Configuration, rng *rand.Rand, opts Options) Result {
	return Execute(a, sched, init, rng, opts.maxSteps(), a.Legitimate, nil)
}

// Execute steps the algorithm under the scheduler from init. Before each
// step it stops when stop (if non-nil) holds, when maxSteps steps have
// been taken, or when no process is enabled. A step has the scheduler
// select among the enabled processes and executes them, drawing both from
// rng; each (if non-nil) then sees the configuration before the step, the
// selected processes and the configuration after it. The enabled set is
// evaluated once per configuration, and init is not modified.
func Execute(a protocol.Algorithm, sched scheduler.Scheduler, init protocol.Configuration, rng *rand.Rand,
	maxSteps int, stop func(protocol.Configuration) bool, each func(before protocol.Configuration, chosen []int, after protocol.Configuration)) Result {
	res := Result{Final: init.Clone()}
	var enabled []int
	var rounds roundTracker
	for ; ; res.Steps++ {
		cfg := res.Final
		if stop != nil && stop(cfg) {
			res.Converged = true
			break
		}
		if res.Steps >= maxSteps {
			break
		}
		if rounds.stamp == nil {
			enabled = protocol.EnabledProcesses(a, cfg)
			rounds = newRoundTracker(len(cfg), enabled)
		}
		if len(enabled) == 0 {
			break
		}
		chosen := sched.Select(res.Steps, cfg, enabled, rng)
		res.Final = protocol.Step(a, cfg, chosen, rng)
		if each != nil {
			each(cfg, chosen, res.Final)
		}
		res.Moves += len(chosen)
		enabled = protocol.EnabledProcesses(a, res.Final)
		rounds.observe(chosen, enabled)
	}
	res.Rounds = rounds.rounds
	return res
}

// TrialSeed derives the seed of trial i of a batch seeded with seed: a
// splitmix64 hash of the pair, so trials are mutually independent and any
// single trial is replayable in isolation (build TrialRNG(seed, i) and
// rerun it) without replaying its predecessors. The netsim backend uses
// the same derivation for its trial batches.
func TrialSeed(seed int64, trial int) int64 {
	x := Mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(trial+1))
	return int64(x >> 1) // non-negative, keeps rand.NewSource happy everywhere
}

// Mix64 is the splitmix64 finalizer, the one hash behind every
// counter-based random stream in the repo: trial seeds here, the Monte
// Carlo walkers' draws (internal/mc) and netsim's Stream.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TrialRNG returns the private generator of trial i.
func TrialRNG(seed int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(TrialSeed(seed, trial)))
}

// Trials summarizes `trials` runs from uniformly random initial
// configurations. It returns the step statistics over converged runs and
// the number of failures (budget exhaustion). Trial i draws its initial
// configuration and its execution randomness from TrialRNG(seed, i), so
// results do not depend on batch order and any trial replays in isolation.
func Trials(a protocol.Algorithm, sched scheduler.Scheduler, trials int, seed int64, opts Options) (stats.Summary, int) {
	steps := make([]float64, 0, trials)
	failures := 0
	for i := 0; i < trials; i++ {
		rng := TrialRNG(seed, i)
		res := Run(a, sched, protocol.RandomConfiguration(a, rng), rng, opts)
		if !res.Converged {
			failures++
			continue
		}
		steps = append(steps, float64(res.Steps))
	}
	return stats.Summarize(steps), failures
}
