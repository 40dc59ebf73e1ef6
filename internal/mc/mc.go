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
//     the CSR layout), plus one kind byte per state that says whether the
//     state is a target, absorbing, a row uniform over 2^s successors (and
//     its shift) or a general row. A step on a uniform row is a hash, the
//     loads of kind, the row offset and the successor, and a shift: the
//     top s bits of the draw pick the successor, touching neither
//     table. Every other row takes a short search that
//     the guide table starts next to its answer — no allocation, no
//     decoding, no branching on algorithm structure.
//   - Walkers run in flat batches sharded across a worker pool; inside a
//     batch four lanes step their walkers in lockstep so the walkers'
//     independent memory loads overlap. The lanes live in locals
//     (registers) on uniform and general rows alike, and a lane that hits
//     the target takes the batch's next trial without leaving that loop.
//     The inner hash of each step coordinate comes from a package-level
//     table. Every walker draws from a counter-based stream keyed by
//     sim.TrialSeed(seed, trial) (à la netsim/rng.go), so each
//     trajectory is a pure function of (space, target, seed, trial) and
//     every output of the estimator is bit-identical across worker
//     counts — the same determinism contract the rest of the repo pins.
//   - Batches merge in batch (= trial) order behind the pool, which is
//     what makes optional early stopping (at a target 95% CI half-width)
//     deterministic too: the stopping decision only ever reads a
//     contiguous prefix of batches, so the scheduling of the workers
//     that computed them cannot change where the run stops.
//   - The merge counts the hit times into one stats.Hist, which the
//     summary, the CDF and Result.ECDF read, and hands each batch's slot
//     buffer back to a free list: a run holds one count per hit time
//     below the walker count, a list of the longer ones and a few slot
//     buffers per worker, and no per-walker vector.
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
	"sync"
	"sync/atomic"

	"weakstab/internal/markov"
	"weakstab/internal/obs"
	"weakstab/internal/sim"
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
	// Steps is the histogram of the Hits walkers' hitting times: counts
	// for the times below Requested, a sorted list of the rest. A run
	// always sets it; a caller that keeps only the summaries may drop it
	// (nil), but ECDF reads it.
	Steps *stats.Hist
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
// estimand of markov.HittingTimeCDF). It sums the histogram's counts up
// to t.
func (r *Result) ECDF(t float64) float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Steps.CountAtMost(t)) / float64(r.Trials)
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
// kind byte that a walker step reads first. The inner hashes of the
// draws come from stepTerms, one package-level table every estimator
// shares. A run walks each batch in four lanes (see batch.fast). Build it
// once per space with New and run it any number of times; the estimator
// itself is immutable after construction and safe for concurrent Runs.
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
	// kind[s] is everything a step needs to know about s before its row
	// offset: kindTarget for a target state, kindAbsorbing for a
	// non-target state without successors, and otherwise rowKind of its
	// row — 63-log2(d), below 64, when the row is uniform-exact over d
	// successors, kindGeneral when it is not (see pick). cum and guide
	// are still built for uniform rows; pick never reads them there.
	kind []uint8
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
		kind:    make([]uint8, n),
		workers: resolveWorkers(0, ts),
	}
	err = markov.CheckRows(off, prob, e.workers, func(s int, a, b int64) {
		sum := 0.0
		for i := a; i < b; i++ {
			sum += prob.At(i)
			e.cum[i] = sum
		}
		e.fillGuide(a, b)
		e.kind[s] = rowKind(e.cum[a:b])
	})
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	for s := 0; s < n; s++ {
		switch {
		case target[s]:
			e.kind[s] = kindTarget
			continue
		case off[s] == off[s+1]:
			e.kind[s] = kindAbsorbing
		}
		e.nonTarget = append(e.nonTarget, int32(s))
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

// The kinds of a state that are not a uniform row's shift. Those are
// below 64, so a kind byte below 64 is the whole uniform-row test; the
// kinds that end a walk are the ones at or above 128, so a kind byte
// below 128 is the whole "take a step" test.
const (
	kindGeneral   = 64  // a row pick searches through the guide table
	kindAbsorbing = 128 // a non-target state without successors
	kindTarget    = 129 // a target state, whatever its row
)

// rowKind classifies one non-empty row by its cumulative sums: 63-s when
// the row is uniform-exact over d = 2^s successors (cum[k] == (k+1)/d for
// every k, compared exactly; 1/d is a power of two, so (k+1)·(1/d) is the
// exact quotient), and kindGeneral for every other row.
func rowKind(cum []float64) uint8 {
	d := len(cum)
	if d&(d-1) != 0 {
		return kindGeneral
	}
	inv := 1 / float64(d)
	for k, c := range cum {
		if c != float64(k+1)*inv {
			return kindGeneral
		}
	}
	return uint8(63 - bits.TrailingZeros(uint(d)))
}

// uniformPos is the row offset a uniform-exact row of rowKind k < 64,
// over d = 2^(63-k) successors, takes for the raw draw x: its top 63-k
// bits, x>>1>>k (0 for k = 63, a one-successor row).
func uniformPos(x uint64, k uint8) int64 { return int64(x >> 1 >> (k & 63)) }

// pick returns the CSR position a walker on the row [a, b) of kind k (a
// rowKind) steps to for the raw draw x. A uniform-exact row over d = 2^s
// successors takes a + x>>(64-s), loading neither cum nor guide. Every
// other row searches at u = unit(x). The two agree: u·d is exact, so
// floor(u·d) = (x>>11)>>(53-s) = x>>(64-s), and with cum exactly (k+1)/d
// the first position whose cum exceeds u is offset floor(u·d), the one
// sample finds.
func pick(cum []float64, guide []int32, a, b int64, k uint8, x uint64) int64 {
	if k < 64 {
		return a + uniformPos(x, k)
	}
	return sample(cum, guide, a, b, unit(x))
}

// sample inverts the CDF of the row at CSR positions [a, b) at u in
// [0, 1): it returns the first position whose cum exceeds u, clamped to
// the row's last position when float rounding leaves every cum <= u.
// With as many guide buckets as positions, the scan from the guide entry
// averages about two comparisons over u. pick and batch.fast call it
// for every row that is not uniform-exact.
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

// batchOut is one finished batch, merged strictly in batch order: each
// trial's outcome in its slot, in trial order, and the steps its walkers
// took.
type batchOut struct {
	slots  []float64
	walked int64
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
		outs     = make([]batchOut, numBatches) // nil slots: not ready or merged
		frontier int                            // batches merged so far (a contiguous prefix)
		res      = Result{Requested: trials, MaxSteps: maxSteps, Steps: stats.NewHist(trials)}
		sum      float64     // running moments of the merged hit times,
		sumsq    float64     // feeding the deterministic stopping rule
		free     [][]float64 // slot buffers merge has consumed
	)
	stop.Store(int64(numBatches))

	// merge folds batch b into the result and frees its slots. Caller
	// holds mu; batches arrive here strictly in batch order, so the
	// accumulation order — and with it the early-stop decision — is a
	// pure function of the options, not of worker scheduling.
	merge := func(b int) {
		out := outs[b]
		outs[b] = batchOut{}
		res.Trials += len(out.slots)
		res.WalkerSteps += out.walked
		for _, v := range out.slots {
			switch v {
			case slotDivergent:
				res.Divergent++
			case slotCensored:
				res.Censored++
			default:
				res.Hits++
				res.Steps.Add(int(v))
				sum += v
				sumsq += v * v
			}
		}
		free = append(free, out.slots)
		if o.On() {
			o.Counter("mc.batches").Add(1)
			o.Counter("mc.trials").Add(int64(len(out.slots)))
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
		mu.Lock()
		var slots []float64
		if n := len(free); n > 0 {
			slots, free = free[n-1], free[:n-1]
		}
		mu.Unlock()
		if slots == nil {
			slots = make([]float64, batch)
		}
		slots = slots[:hi-lo]
		walked := e.walk(slots, lo, opt.Seed, maxSteps, from)
		mu.Lock()
		outs[b] = batchOut{slots, walked}
		for frontier < numBatches && int64(frontier) < stop.Load() && outs[frontier].slots != nil {
			merge(frontier)
			frontier++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Steps.Seal()
	res.Summary = res.Steps.Summary()
	res.CDF = res.Steps.CDF(nil)
	return &res, nil
}

// prefixMeanCI computes the mean and normal-theory 95% half-width from
// running moments — the stopping rule's view of the merged prefix. The
// final Result recomputes both from the histogram;
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
// every lane one step, so the lanes' independent loads of kind, off and
// succ overlap instead of each waiting on the one before; four lanes'
// walkers fit in registers (see fast).
const lanes = 4

// Outcomes other than a hit time in a batch's per-trial slots.
const (
	slotDivergent = -1
	slotCensored  = -2
)

// walker is the trial one lane is stepping.
type walker struct {
	key   uint64 // the trial's stream key
	trial int
	steps int
	s     int32
}

// start places the walker of trial t on its start state.
func (e *Estimator) start(seed int64, t, from int) walker {
	w := walker{key: walkerKey(seed, t), trial: t, s: int32(from)}
	if from < 0 {
		i := int(unit(sim.Mix64(w.key^startTerm)) * float64(len(e.nonTarget)))
		if i >= len(e.nonTarget) {
			i = len(e.nonTarget) - 1
		}
		w.s = e.nonTarget[i]
	}
	return w
}

// batch is the walk state of trials [lo, hi): the lanes ln[:n] in use,
// the next trial to start and each finished trial's outcome in its slot.
type batch struct {
	e        *Estimator
	lo, hi   int
	next     int
	seed     int64
	maxSteps int
	from     int
	slots    []float64
	walked   int64
	ln       [lanes]walker
	n        int
}

// walk walks the trials from lo on, one per slot, lanes at a time: a
// lane whose walker finishes takes the batch's next trial. It puts each
// trial's outcome in its slot — the hit time, slotDivergent or
// slotCensored — and returns the steps the walkers took. The walk is
// allocation-free.
func (e *Estimator) walk(slots []float64, lo int, seed int64, maxSteps, from int) int64 {
	hi := lo + len(slots)
	bt := batch{e: e, lo: lo, hi: hi, next: lo, seed: seed, maxSteps: maxSteps, from: from, slots: slots}
	for ; bt.n < lanes && bt.next < hi; bt.n++ {
		bt.ln[bt.n] = e.start(seed, bt.next, from)
		bt.next++
	}
	for bt.n > 0 {
		if bt.n == lanes {
			bt.fast()
		}
		bt.pass()
	}
	return bt.walked
}

// finish puts the outcome of the walker on lane w in its trial's slot
// and starts the batch's next trial there; false when none is left.
func (bt *batch) finish(w *walker, outcome float64) bool {
	bt.slots[w.trial-bt.lo] = outcome
	bt.walked += int64(w.steps)
	if bt.next == bt.hi {
		return false
	}
	*w = bt.e.start(bt.seed, bt.next, bt.from)
	bt.next++
	return true
}

// pass settles or steps every lane once, in the order of the walk's
// rules: a walker on a target has hit, one on an absorbing state has
// diverged, one out of budget is censored, and any other takes a step.
// A finished lane takes the batch's next trial, or retires when none is
// left.
func (bt *batch) pass() {
	e := bt.e
	for l := 0; l < bt.n; l++ {
		w := &bt.ln[l]
		var outcome float64
		switch k := e.kind[w.s]; {
		case k == kindTarget:
			outcome = float64(w.steps)
		case k == kindAbsorbing:
			outcome = slotDivergent // T = +Inf, proved
		case w.steps >= bt.maxSteps:
			outcome = slotCensored // T > MaxSteps, undecided
		default:
			a, b := e.off[w.s], e.off[w.s+1]
			w.s = e.succ[pick(e.cum, e.guide, a, b, k, draw(w.key, uint64(w.steps)))]
			w.steps++
			continue
		}
		if !bt.finish(w, outcome) {
			bt.n--
			*w = bt.ln[bt.n]
			l-- // the lane moved into l steps in this pass too
		}
	}
}

// fast steps all four lanes, their states and step counts held in
// locals, for as long as no lane has ended its walk and every lane is
// below both the step budget and the end of stepTerms: one step is a
// hash, the loads of kind and off, and either a shift (a uniform row) or
// the guide search (a general row), then the load of succ. A lane that
// reaches a target records its hit and takes the batch's next trial
// without leaving the loop. Anything else — an absorbing state, the
// budget or the table's end, or a hit with no trial left to start —
// stores the lanes back for pass.
func (bt *batch) fast() {
	kind, off, succ, cum, guide := bt.e.kind, bt.e.off, bt.e.succ, bt.e.cum, bt.e.guide
	lim := min(bt.maxSteps, stepTermsLen)
	w0, w1, w2, w3 := &bt.ln[0], &bt.ln[1], &bt.ln[2], &bt.ln[3]
	s0, c0 := w0.s, w0.steps
	s1, c1 := w1.s, w1.steps
	s2, c2 := w2.s, w2.steps
	s3, c3 := w3.s, w3.steps
	for {
		k0, k1, k2, k3 := kind[s0], kind[s1], kind[s2], kind[s3]
		if k0|k1|k2|k3 >= kindAbsorbing || max(c0, c1, c2, c3) >= lim {
			if k0 == kindTarget && bt.next < bt.hi {
				w0.steps = c0
				bt.finish(w0, float64(c0))
				s0, c0, k0 = w0.s, 0, kind[w0.s]
			}
			if k1 == kindTarget && bt.next < bt.hi {
				w1.steps = c1
				bt.finish(w1, float64(c1))
				s1, c1, k1 = w1.s, 0, kind[w1.s]
			}
			if k2 == kindTarget && bt.next < bt.hi {
				w2.steps = c2
				bt.finish(w2, float64(c2))
				s2, c2, k2 = w2.s, 0, kind[w2.s]
			}
			if k3 == kindTarget && bt.next < bt.hi {
				w3.steps = c3
				bt.finish(w3, float64(c3))
				s3, c3, k3 = w3.s, 0, kind[w3.s]
			}
			if k0|k1|k2|k3 >= kindAbsorbing || max(c0, c1, c2, c3) >= lim {
				break
			}
		}
		// Every c < lim <= stepTermsLen, so the masks change no index;
		// they only spare the bounds checks.
		x0 := sim.Mix64(w0.key ^ stepTerms[c0&(stepTermsLen-1)])
		x1 := sim.Mix64(w1.key ^ stepTerms[c1&(stepTermsLen-1)])
		x2 := sim.Mix64(w2.key ^ stepTerms[c2&(stepTermsLen-1)])
		x3 := sim.Mix64(w3.key ^ stepTerms[c3&(stepTermsLen-1)])
		// On a general row uniformPos gives a meaningless position, which
		// the guide search replaces.
		p0 := off[s0] + uniformPos(x0, k0)
		if k0 >= kindGeneral {
			p0 = sample(cum, guide, off[s0], off[s0+1], unit(x0))
		}
		p1 := off[s1] + uniformPos(x1, k1)
		if k1 >= kindGeneral {
			p1 = sample(cum, guide, off[s1], off[s1+1], unit(x1))
		}
		p2 := off[s2] + uniformPos(x2, k2)
		if k2 >= kindGeneral {
			p2 = sample(cum, guide, off[s2], off[s2+1], unit(x2))
		}
		p3 := off[s3] + uniformPos(x3, k3)
		if k3 >= kindGeneral {
			p3 = sample(cum, guide, off[s3], off[s3+1], unit(x3))
		}
		s0, s1, s2, s3 = succ[p0], succ[p1], succ[p2], succ[p3]
		c0++
		c1++
		c2++
		c3++
	}
	w0.s, w0.steps = s0, c0
	w1.s, w1.steps = s1, c1
	w2.s, w2.steps = s2, c2
	w3.s, w3.steps = s3, c3
}
