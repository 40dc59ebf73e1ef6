// Package mc is the vectorized Monte Carlo hitting-time engine for the
// regime where the exact Markov solve no longer fits: it estimates the
// stabilization-time distribution of the randomized scheduler's chain by
// walking the probabilistic transition relation directly on the explored
// CSR — a full statespace.Space, a frontier-explored closure, or a
// zero-copy mmap-backed cache load; warm sampling never decodes a
// transition.
//
// The design is throughput- and reproducibility-first:
//
//   - Per-row inverse-CDF sampling tables are precomputed once per space
//     (a cumulative-probability array and a guide table, both aliasing
//     the CSR layout, plus one byte per state marking the rows that are
//     uniform over 2^s successors), so a walker step is a hash, a row
//     lookup and either the top s bits of the draw (uniform rows, which
//     touch neither table) or a short search that the guide table starts
//     next to its answer — no allocation, no decoding, no branching on
//     algorithm structure.
//   - Walkers run in flat batches sharded across a worker pool; inside a
//     batch a fixed number of lanes step their walkers in lockstep so
//     the walkers' independent memory loads overlap. Every
//     walker draws from a counter-based stream keyed by
//     sim.TrialSeed(seed, trial) (à la netsim/rng.go), so each
//     trajectory is a pure function of (space, target, seed, trial) and
//     every output of the estimator is bit-identical across worker
//     counts — the same determinism contract the rest of the repo pins.
//   - Batches merge in batch (= trial) order behind the pool, which is
//     what makes optional early stopping (at a target 95% CI half-width)
//     deterministic too: the stopping decision only ever reads a
//     contiguous prefix of batches, so the scheduling of the workers
//     that computed them cannot change where the run stops.
//
// Cross-validation against the exact engine (markov.HittingTimes /
// HittingTimeCDF) on instances where both run is pinned by the property
// suite in crossval_test.go.
//
// mc walks an explored chain; internal/sim runs online schedulers,
// including the ones with memory, and configurations too large to explore
// (E12b/E12d).
package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"weakstab/internal/markov"
	"weakstab/internal/obs"
	"weakstab/internal/statespace"
	"weakstab/internal/stats"
)

// Defaults of the zero-valued Options fields.
const (
	// DefaultTrials is the walker count when Options.Trials is 0.
	DefaultTrials = 10_000
	// DefaultMaxSteps is the per-walker step budget when Options.MaxSteps
	// is 0. A walker that exhausts it is censored (T > MaxSteps), never
	// silently dropped.
	DefaultMaxSteps = 1_000_000
	// DefaultBatch is the walkers-per-batch granularity when
	// Options.Batch is 0: the unit of work distribution, cancellation and
	// early stopping. It never affects results — only how often the
	// stopping rule gets to look.
	DefaultBatch = 1024
)

// Options tunes one estimation run. The zero value is ready to use.
type Options struct {
	// Trials is the number of walkers (0 = DefaultTrials). Trial i draws
	// from its own stream keyed by sim.TrialSeed(Seed, i), so any single
	// trial replays in isolation and results never depend on batch order.
	Trials int
	// MaxSteps bounds each walker (0 = DefaultMaxSteps); walkers that
	// exhaust it count as Censored.
	MaxSteps int
	// Seed is the master seed every walker derives its stream from.
	Seed int64
	// Workers sets the walking pool size (0 = the space's exploration
	// pool, or NumCPU). Results are bit-identical for every worker count.
	Workers int
	// Batch is the walkers-per-batch work granularity (0 = DefaultBatch).
	// An execution detail: it never changes any walker's trajectory.
	Batch int
	// From, when non-nil, starts every walker at the given state index.
	// When nil, each walker starts at a uniformly random non-target state
	// — the start distribution whose expected hitting time equals the
	// mean of markov.HittingTimes over the non-target states.
	From *int
	// TargetCI, when positive, stops the run early at the first batch
	// boundary where the normal-theory 95% confidence half-width of the
	// mean is at or below it (checked over the merged batch prefix, so
	// the stop point is deterministic). The walkers of later batches do
	// not contribute.
	TargetCI float64
	// Obs receives mc.batch events and mc.* counters (nil falls back to
	// obs.Default(); both nil disables instrumentation). Results are
	// bit-identical with observability on or off.
	Obs *obs.Observer
}

// Result is the estimate of one run. Every field is a pure function of
// (space, target, options minus Workers/Batch/Obs).
type Result struct {
	// Requested is the configured walker count; Trials is how many
	// contributed after early stopping (== Requested without TargetCI).
	Requested int
	Trials    int
	// Hits walkers reached the target; Divergent walkers reached an
	// absorbing non-target state (T = +Inf, proved); Censored walkers
	// exhausted MaxSteps (T > MaxSteps, undecided).
	Hits      int
	Divergent int
	Censored  int
	// MaxSteps is the resolved per-walker budget the censoring is
	// relative to.
	MaxSteps int
	// Steps holds the hitting times of the Hits walkers, in trial order.
	Steps []float64
	// Summary and CDF describe Steps — the hit walkers only; Divergent
	// and Censored walkers are excluded and reported by count. Callers
	// rendering them must surface that censoring.
	Summary stats.Summary
	CDF     []stats.CDFPoint
	// WalkerSteps is the total number of transition steps the
	// contributing walkers executed.
	WalkerSteps int64
}

// FailureRate is the fraction of contributing walkers that did not hit
// the target (divergent + censored).
func (r *Result) FailureRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Divergent+r.Censored) / float64(r.Trials)
}

// ECDF evaluates the empirical distribution of the hitting time at t:
// the fraction of contributing walkers whose hitting time is <= t, with
// divergent and censored walkers counting as above every finite t (the
// estimand of markov.HittingTimeCDF). Steps is in trial order, not
// sorted, so this is a linear scan — fine for validation, not for bulk
// quantile extraction (use CDF/Summary for that).
func (r *Result) ECDF(t float64) float64 {
	if r.Trials == 0 {
		return 0
	}
	n := 0
	for _, v := range r.Steps {
		if v <= t {
			n++
		}
	}
	return float64(n) / float64(r.Trials)
}

// System is the slice of an explored space the estimator walks: the CSR
// and its pool size. Every *statespace.Space (full range or closure,
// mapped or read) satisfies it; tests satisfy it with hand-built chains.
type System interface {
	// NumStates returns the number of states of the system.
	NumStates() int
	// PoolWorkers returns the worker-pool size analyses over this system
	// should default to (0 = no preference).
	PoolWorkers() int
	// CSR exposes the raw forward CSR triple without copying. The
	// estimator aliases the arrays and never modifies them.
	CSR() (off []int64, succ []int32, prob statespace.Probs)
}

// Estimator holds the per-space sampling tables: the CSR triple aliased
// from the transition system plus a precomputed cumulative-probability
// array and its guide table (the per-row inverse CDF), and the per-state
// shift that lets uniform rows skip both. Build it once per
// space with New and run it any number of times; the estimator itself is
// immutable after construction and safe for concurrent Runs.
type Estimator struct {
	ts     System
	target []bool

	off  []int64
	succ []int32
	// cum[i] is the within-row cumulative probability at CSR position i:
	// sampling state s inverts it over cum[off[s]:off[s+1]], starting
	// the search where guide points.
	cum []float64
	// guide[a+k], for the row of degree d starting at CSR position a, is
	// the row offset a search for any u in bucket k =
	// min(int(u·d), d-1) may start from: never past the first position
	// whose cum exceeds u (Chen–Asau indexed search; see sample).
	guide []int32
	// shift[s] is 64-log2(d) when the row of s is uniform-exact — its
	// degree d is a power of two and cum is exactly (k+1)/d at row
	// offset k — and 0 for every other row (see uniformShift and pick).
	// cum and guide are still built for uniform rows; pick never reads
	// them there.
	shift []uint8
	// nonTarget lists the non-target state indexes, the support of the
	// uniform start distribution.
	nonTarget []int32

	workers int
}

// New precomputes the sampling tables of one explored transition system
// for the given target set (typically markov.TargetFromSpace(ts)). Rows
// are validated by markov.CheckRows, as markov.FromSpace validates them.
// A zero-copy mapped system is pinned for the duration of the precompute;
// Run pins it again for the walk.
func New(ts System, target []bool) (*Estimator, error) {
	n := ts.NumStates()
	if len(target) != n {
		return nil, fmt.Errorf("mc: target length %d != states %d", len(target), n)
	}
	release, err := pin(ts)
	if err != nil {
		return nil, err
	}
	defer release()
	off, succ, prob := ts.CSR()
	e := &Estimator{
		ts:      ts,
		target:  target,
		off:     off,
		succ:    succ,
		cum:     make([]float64, len(succ)),
		guide:   make([]int32, len(succ)),
		shift:   make([]uint8, n),
		workers: resolveWorkers(0, ts),
	}
	err = markov.CheckRows(off, prob, e.workers, func(s int, a, b int64) {
		sum := 0.0
		for i := a; i < b; i++ {
			sum += prob.At(i)
			e.cum[i] = sum
		}
		e.fillGuide(a, b)
		e.shift[s] = uniformShift(e.cum[a:b])
	})
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	for s := 0; s < n; s++ {
		if !target[s] {
			e.nonTarget = append(e.nonTarget, int32(s))
		}
	}
	return e, nil
}

// guideMargin lowers each guide bucket's left edge k/d, so float rounding
// in a draw's int(u·d) can only move its search start earlier.
const guideMargin = 1e-12

// fillGuide builds the guide table of the row at CSR positions [a, b):
// guide[a+k] is the offset of the first position whose cum exceeds the
// lowered edge of bucket k, or of the row's last position if none does.
// Every u a draw maps to bucket k is at or above that edge, and cum is
// nondecreasing, so the search from there never starts past u's answer.
func (e *Estimator) fillGuide(a, b int64) {
	d := b - a
	j := int64(0)
	for k := int64(0); k < d; k++ {
		edge := float64(k) / float64(d) * (1 - guideMargin)
		for j < d-1 && e.cum[a+j] <= edge {
			j++
		}
		e.guide[a+k] = int32(j)
	}
}

// uniformShift classifies one row by its cumulative sums: 64-s when the
// row is uniform-exact over d = 2^s successors (cum[k] == (k+1)/d for
// every k, compared exactly; 1/d is a power of two, so (k+1)·(1/d) is the
// exact quotient), and 0 for every other row.
func uniformShift(cum []float64) uint8 {
	d := len(cum)
	if d&(d-1) != 0 {
		return 0
	}
	inv := 1 / float64(d)
	for k, c := range cum {
		if c != float64(k+1)*inv {
			return 0
		}
	}
	return uint8(64 - bits.TrailingZeros(uint(d)))
}

// pick returns the CSR position a walker on the row [a, b) steps to for
// the raw draw x, where shift is the row's uniformShift. A uniform-exact
// row over d = 2^s successors takes a + x>>(64-s), loading neither cum
// nor guide (for s = 0 the shift is 64 and gives 0). Every other row
// searches at u = unit(x). The two agree: u·d is exact, so floor(u·d) =
// (x>>11)>>(53-s) = x>>(64-s), and with cum exactly (k+1)/d the first
// position whose cum exceeds u is offset floor(u·d), the one sample finds.
func pick(cum []float64, guide []int32, a, b int64, shift uint8, x uint64) int64 {
	if shift != 0 {
		return a + int64(x>>shift)
	}
	return sample(cum, guide, a, b, unit(x))
}

// sample inverts the CDF of the row at CSR positions [a, b) at u in
// [0, 1): it returns the first position whose cum exceeds u, clamped to
// the row's last position when float rounding leaves every cum <= u.
// With as many guide buckets as positions, the scan from the guide entry
// averages about two comparisons over u. pick calls it for every row
// that is not uniform-exact.
func sample(cum []float64, guide []int32, a, b int64, u float64) int64 {
	d := b - a
	k := min(int64(u*float64(d)), d-1)
	i := a + int64(guide[a+k])
	for i < b-1 && cum[i] <= u {
		i++
	}
	return i
}

// pin acquires a zero-copy mapped system against concurrent unmapping
// (the same contract core.AnalyzeSpaceContext honors); a no-op release for
// everything else.
func pin(ts System) (release func(), err error) {
	if p, ok := ts.(interface {
		Acquire() error
		Release() error
	}); ok {
		if err := p.Acquire(); err != nil {
			return nil, fmt.Errorf("mc: %w", err)
		}
		return func() { p.Release() }, nil
	}
	return func() {}, nil
}

// resolveWorkers resolves a worker-pool option against the backing
// system's exploration pool.
func resolveWorkers(workers int, ts System) int {
	if workers > 0 {
		return workers
	}
	if ts != nil && ts.PoolWorkers() > 0 {
		return ts.PoolWorkers()
	}
	return runtime.NumCPU()
}

// batchOut is the contribution of one finished batch, merged strictly in
// batch order.
type batchOut struct {
	steps     []float64 // hit times, in trial order within the batch
	divergent int
	censored  int
	walked    int64
}

// RunContext estimates with the given options. ctx is checked at batch
// boundaries, so a cancelled run stops claiming batches and returns an
// error wrapping ctx.Err() in bounded time, producing no result. A
// successful run is unaffected by ctx.
func (e *Estimator) RunContext(ctx context.Context, opt Options) (*Result, error) {
	trials := opt.Trials
	if trials <= 0 {
		trials = DefaultTrials
	}
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	batch := opt.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	if batch > trials {
		batch = trials
	}
	from := -1
	if opt.From != nil {
		from = *opt.From
		if from < 0 || from >= len(e.target) {
			return nil, fmt.Errorf("mc: start state %d out of range [0,%d)", from, len(e.target))
		}
	} else if len(e.nonTarget) == 0 {
		return nil, errors.New("mc: every state is a target state; nothing to estimate")
	}
	release, err := pin(e.ts)
	if err != nil {
		return nil, err
	}
	defer release()

	numBatches := (trials + batch - 1) / batch
	workers := resolveWorkers(opt.Workers, e.ts)
	o := obs.Or(opt.Obs)

	var (
		stop atomic.Int64 // exclusive merge bound, lowered by early stopping

		mu       sync.Mutex
		outs     = make([]batchOut, numBatches)
		ready    = make([]bool, numBatches)
		frontier int // batches merged so far (a contiguous prefix)
		res      = Result{Requested: trials, MaxSteps: maxSteps}
		sum      float64 // running moments of the merged hit times,
		sumsq    float64 // feeding the deterministic stopping rule
	)
	stop.Store(int64(numBatches))
	if opt.TargetCI <= 0 {
		// Without early stopping every trial contributes, so the hits
		// fit; an early-stopped run grows Steps only as far as it gets.
		res.Steps = make([]float64, 0, trials)
	}

	// merge folds batch b into the result. Caller holds mu; batches
	// arrive here strictly in batch order, so the accumulation order —
	// and with it the early-stop decision — is a pure function of the
	// options, not of worker scheduling.
	merge := func(b int) {
		out := outs[b]
		outs[b] = batchOut{}
		lo := b * batch
		hi := lo + batch
		if hi > trials {
			hi = trials
		}
		res.Trials += hi - lo
		res.Hits += len(out.steps)
		res.Divergent += out.divergent
		res.Censored += out.censored
		res.WalkerSteps += out.walked
		res.Steps = append(res.Steps, out.steps...)
		for _, v := range out.steps {
			sum += v
			sumsq += v * v
		}
		if o.On() {
			o.Counter("mc.batches").Add(1)
			o.Counter("mc.trials").Add(int64(hi - lo))
			o.Counter("mc.steps").Add(out.walked)
			mean, ci := prefixMeanCI(res.Hits, sum, sumsq)
			o.Emit("mc.batch", obs.MCBatch{
				Batch: b, Of: numBatches, Trials: res.Trials, Hits: res.Hits,
				Mean: mean, CI: ci, Steps: res.WalkerSteps,
			})
		}
		if opt.TargetCI > 0 && res.Hits >= 2 {
			if _, ci := prefixMeanCI(res.Hits, sum, sumsq); ci <= opt.TargetCI {
				stop.Store(int64(b + 1))
			}
		}
	}

	// Batches past the early-stop bound are claimed but skipped.
	err = statespace.ForRanges(numBatches, workers, 1, func(b, _ int) error {
		if int64(b) >= stop.Load() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("mc: estimation canceled: %w", err)
		}
		lo := b * batch
		hi := lo + batch
		if hi > trials {
			hi = trials
		}
		out := e.runBatch(lo, hi, opt.Seed, maxSteps, from)
		mu.Lock()
		outs[b] = out
		ready[b] = true
		for frontier < numBatches && int64(frontier) < stop.Load() && ready[frontier] {
			merge(frontier)
			frontier++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted := sortedHits(res.Steps)
	res.Summary = stats.SummarizeSorted(sorted)
	res.CDF = stats.CDFSorted(sorted, nil)
	return &res, nil
}

// sortedHits returns the hit times in ascending order, leaving steps in
// trial order. Hit times are integers, so while the largest is below the
// sample size a counting sort over a histogram no longer than the sample
// orders them in linear time; otherwise it falls back to slices.Sort.
func sortedHits(steps []float64) []float64 {
	sorted := make([]float64, len(steps))
	top := 0.0
	for _, v := range steps {
		top = max(top, v)
	}
	if top >= float64(len(steps)) {
		copy(sorted, steps)
		slices.Sort(sorted)
		return sorted
	}
	counts := make([]int, int(top)+1)
	for _, v := range steps {
		counts[int(v)]++
	}
	i := 0
	for v, c := range counts {
		for end := i + c; i < end; i++ {
			sorted[i] = float64(v)
		}
	}
	return sorted
}

// prefixMeanCI computes the mean and normal-theory 95% half-width from
// running moments — the stopping rule's view of the merged prefix. The
// final Result recomputes both from the full sorted sample;
// tiny floating differences between the two never affect determinism
// because each is computed in one fixed order.
func prefixMeanCI(n int, sum, sumsq float64) (mean, ci float64) {
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	variance := (sumsq - sum*mean) / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return mean, 1.96 * math.Sqrt(variance/float64(n))
}

// lanes is how many walkers a batch steps in lockstep. Each pass moves
// every lane one step, so the lanes' independent loads of off, shift,
// guide, cum and succ overlap instead of each waiting on the one before.
const lanes = 8

// Outcomes other than a hit time in a batch's per-trial slots.
const (
	slotDivergent = -1
	slotCensored  = -2
)

// walker is the trial one lane is stepping.
type walker struct {
	st    stream
	trial int
	steps int
	s     int32
}

// start places the walker of trial t on its start state.
func (e *Estimator) start(seed int64, t, from int) walker {
	w := walker{st: walkerStream(seed, t), trial: t, s: int32(from)}
	if from < 0 {
		i := int(w.st.float(startCoord) * float64(len(e.nonTarget)))
		if i >= len(e.nonTarget) {
			i = len(e.nonTarget) - 1
		}
		w.s = e.nonTarget[i]
	}
	return w
}

// runBatch walks trials [lo, hi), lanes at a time: a lane whose walker
// finishes takes the batch's next trial. Each outcome lands in its
// trial's slot, and the hits are then compacted in place, so they come
// out in trial order however the lanes interleave. The only allocation
// is the slots slice; the walk itself is allocation-free.
func (e *Estimator) runBatch(lo, hi int, seed int64, maxSteps, from int) batchOut {
	off, succ, cum, guide, shift, target := e.off, e.succ, e.cum, e.guide, e.shift, e.target
	slots := make([]float64, hi-lo)
	var (
		ln     [lanes]walker
		n      int // lanes in use: ln[:n]
		walked int64
	)
	for ; n < lanes && lo+n < hi; n++ {
		ln[n] = e.start(seed, lo+n, from)
	}
	next := lo + n
	for n > 0 {
		for l := 0; l < n; l++ {
			w := &ln[l]
			s := w.s
			var outcome float64
			if target[s] {
				outcome = float64(w.steps)
			} else if a, b := off[s], off[s+1]; a == b {
				outcome = slotDivergent // absorbing non-target: T = +Inf, proved
			} else if w.steps >= maxSteps {
				outcome = slotCensored // budget exhausted: T > MaxSteps, undecided
			} else {
				w.s = succ[pick(cum, guide, a, b, shift[s], w.st.bits(uint64(w.steps)))]
				w.steps++
				continue
			}
			slots[w.trial-lo] = outcome
			walked += int64(w.steps)
			if next < hi {
				*w = e.start(seed, next, from)
				next++
			} else {
				n--
				*w = ln[n]
				l-- // the lane moved into l steps in this pass too
			}
		}
	}
	out := batchOut{steps: slots[:0], walked: walked}
	for _, v := range slots {
		switch v {
		case slotDivergent:
			out.divergent++
		case slotCensored:
			out.censored++
		default:
			out.steps = append(out.steps, v)
		}
	}
	return out
}
