// Package sim is the Monte-Carlo engine: it runs algorithms under online
// schedulers from arbitrary initial configurations, measures convergence
// times, and injects transient faults to exercise re-stabilization — the
// empirical counterpart of the exact Markov analysis for instances too
// large to enumerate.
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
	// Converged is true if a legitimate configuration was reached within
	// the step budget (the initial configuration counts).
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

// roundTracker implements the standard round measure.
type roundTracker struct {
	pending map[int]bool
	rounds  int
}

func newRoundTracker(enabled []int) *roundTracker {
	t := &roundTracker{pending: make(map[int]bool, len(enabled))}
	t.reset(enabled)
	return t
}

func (t *roundTracker) reset(enabled []int) {
	clear(t.pending)
	for _, p := range enabled {
		t.pending[p] = true
	}
}

// observe accounts one step: chosen processes executed; the enabled set is
// the post-step enabled set. Processes that executed or are no longer
// enabled leave the pending set; when it empties, a round completes.
func (t *roundTracker) observe(chosen, enabledAfter []int) {
	for _, p := range chosen {
		delete(t.pending, p)
	}
	still := make(map[int]bool, len(enabledAfter))
	for _, p := range enabledAfter {
		still[p] = true
	}
	for p := range t.pending {
		if !still[p] {
			delete(t.pending, p)
		}
	}
	if len(t.pending) == 0 {
		t.rounds++
		t.reset(enabledAfter)
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
	cfg := init.Clone()
	moves := 0
	budget := opts.maxSteps()
	var rounds *roundTracker
	for step := 0; step < budget; step++ {
		if a.Legitimate(cfg) {
			return Result{Converged: true, Steps: step, Moves: moves, Rounds: roundCount(rounds), Final: cfg}
		}
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) == 0 {
			// Terminal but illegitimate: cannot converge.
			return Result{Converged: false, Steps: step, Moves: moves, Rounds: roundCount(rounds), Final: cfg}
		}
		if rounds == nil {
			rounds = newRoundTracker(enabled)
		}
		chosen := sched.Select(step, cfg, enabled, rng)
		moves += len(chosen)
		cfg = protocol.Step(a, cfg, chosen, rng)
		rounds.observe(chosen, protocol.EnabledProcesses(a, cfg))
	}
	return Result{Converged: a.Legitimate(cfg), Steps: budget, Moves: moves, Rounds: roundCount(rounds), Final: cfg}
}

func roundCount(t *roundTracker) int {
	if t == nil {
		return 0
	}
	return t.rounds
}

// TrialSeed derives the seed of trial i of a batch seeded with seed: a
// splitmix64 hash of the pair, so trials are mutually independent and any
// single trial is replayable in isolation (build TrialRNG(seed, i) and
// rerun it) without replaying its predecessors. The netsim backend uses
// the same derivation for its trial batches.
func TrialSeed(seed int64, trial int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(trial+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // non-negative, keeps rand.NewSource happy everywhere
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
