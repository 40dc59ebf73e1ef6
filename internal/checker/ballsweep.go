package checker

// The incremental k-fault machinery. A distance-(k+1) fault ball is the
// distance-k ball plus one mutation shell, and its forward closure extends
// the k closure — so a sweep over k = 0..kmax should pay for ONE ball
// enumeration and ONE closure exploration, not kmax of each. ballGrower
// keeps the mutation BFS resumable (grow one shell at a time), BallSweep
// pairs it with a resumable statespace.Builder for the closure, and
// SweepKFaultsContext drives the walk upward — sealing a canonical
// subspace and classifying the k-fault verdict at every radius, stopping
// early at the smallest k that breaks convergence when asked. The one-shot
// BallClosureContext is a BallSweep grown to k and sealed once, so every
// fault-ball closure the package explores is sealed by BallSweep.seal;
// every incrementally sealed snapshot is bit-identical to the one-shot
// closure at that k (pinned by the parity tests), so incremental is purely
// a cost saving.
//
// An optional *spacecache.Cache adds on-disk persistence (nil means no
// caching): each sealed closure persists as one entry under its
// (instance, policy, k) key. The ball is not stored: a closure contains
// the whole legitimate set, so a warm run re-seeds the ball enumeration
// from the loaded closure's legitimate states (closureBallGrower) and
// regrows it — zero legitimacy scans, zero exploration, zero algorithm
// callbacks. A sweep served warm up to some radius keeps that one grower
// for its cold radii; the first of them explores its whole closure.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// ballGrower is the resumable distance-ball enumeration: the legitimate
// seed set plus one mutation shell per grow call. Ids are assigned shell by
// shell, so every shell is a contiguous id range and the aligned distances
// are exact: shell k is [lo, ball.Len()).
type ballGrower struct {
	a         protocol.Algorithm
	enc       *protocol.Encoder
	maxStates int64
	workers   int
	k         int // current radius: dist values span [0, k]
	lo        int // first id of shell k
	ball      *statespace.Dedup
	dist      []int // aligned with ball ids
}

// ballGrain is the fixed number of shell configurations one grow chunk
// mutates, and ballBatch about the number of mutations one group of
// chunks holds (at most one Dedup.AddChunks round); like frontierGrain
// neither depends on the worker count.
const (
	ballGrain = 1 << 10
	ballBatch = 1 << 20
)

// newBallGrower returns the radius-0 ball (the legitimate set itself),
// seeded from the algorithm's closed-form enumeration when it implements
// protocol.LegitEnumerator and from a parallel legitimacy scan of the
// index range otherwise.
func newBallGrower(ctx context.Context, a protocol.Algorithm, workers int, maxStates int64) (*ballGrower, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	b := newGrowerOver(a, enc, maxStates, workers, statespace.NewDedup(enc.Total()))
	if le, ok := a.(protocol.LegitEnumerator); ok {
		err = b.seedEnumerated(le)
	} else {
		err = b.seedScan(ctx)
	}
	if err != nil {
		return nil, err
	}
	// Inclusive cap: a legitimate set of exactly maxStates is admitted,
	// matching the seed admission of statespace.BuildFromContext.
	if int64(b.ball.Len()) > b.maxStates {
		return nil, fmt.Errorf("checker: legitimate set of %d configurations exceeds the %d-state cap", b.ball.Len(), b.maxStates)
	}
	return b, nil
}

// closureBallGrower returns the radius-0 ball re-derived from ss, the
// sealed forward closure of a fault ball (as a cache entry holds it). The
// closure contains the ball's distance-0 members, the whole legitimate
// set, so its legitimate states are exactly L: they seed the grower in
// place of LegitEnumerator or the legitimacy scan, with no algorithm
// callbacks, and growTo(k) then yields what FaultBallContext yields at k.
// The grower runs on the space's worker-pool size.
func closureBallGrower(ss *statespace.Space, maxStates int64) *ballGrower {
	b := newGrowerOver(ss.Alg, ss.Enc, maxStates, ss.PoolWorkers(), statespace.NewDedup(ss.Enc.Total()))
	for s, legit := range ss.Legit {
		if legit {
			b.ball.Add(ss.GlobalIndex(s))
			b.dist = append(b.dist, 0)
		}
	}
	return b
}

// newGrowerOver returns a radius-0 grower over the given dedup table; the
// caller fills the table and the aligned distances.
func newGrowerOver(a protocol.Algorithm, enc *protocol.Encoder, maxStates int64, workers int, ball *statespace.Dedup) *ballGrower {
	return &ballGrower{
		a:         a,
		enc:       enc,
		maxStates: statespace.StateCap(maxStates),
		workers:   workers,
		ball:      ball,
	}
}

// seedEnumerated admits the closed-form legitimate set — no index-range
// pass of any kind. Configurations are validated against the process
// domains so a misbehaving enumerator yields a clean error, and duplicates
// are tolerated (the dedup absorbs them).
func (b *ballGrower) seedEnumerated(le protocol.LegitEnumerator) error {
	n := b.a.Graph().N()
	var bad error
	le.EnumerateLegitimate(func(cfg protocol.Configuration) bool {
		if len(cfg) != n {
			bad = fmt.Errorf("checker: %s enumerated a configuration of %d process states, want %d", b.a.Name(), len(cfg), n)
			return false
		}
		for p, v := range cfg {
			if v < 0 || v >= b.a.StateCount(p) {
				bad = fmt.Errorf("checker: %s enumerated state %d out of domain [0,%d) at p=%d", b.a.Name(), v, b.a.StateCount(p), p)
				return false
			}
		}
		if id := b.ball.Add(b.enc.Encode(cfg)); int(id) == len(b.dist) {
			b.dist = append(b.dist, 0)
		}
		return true
	})
	return bad
}

// seedScan admits the legitimate set by a parallel legitimacy scan:
// per-chunk odometer decode, chunks stitched in index order so the seed
// enumeration is deterministic and already ascending. The grain grows with
// the range so the chunk-header array stays bounded on huge index ranges.
// ctx is checked per chunk, so a cancelled scan stops claiming work.
func (b *ballGrower) seedScan(ctx context.Context) error {
	total := b.enc.Total()
	if total > int64(math.MaxInt) {
		return fmt.Errorf("checker: %d configurations exceed the platform index range", total)
	}
	workers := b.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	n := b.a.Graph().N()
	grain := int64(1 << 12)
	if c := total / int64(workers*8); c > grain {
		grain = c
	}
	numChunks := (total + grain - 1) / grain
	perChunk := make([][]int64, numChunks)
	err := statespace.ForRanges(int(total), workers, int(grain), func(lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("checker: legitimacy scan canceled: %w", err)
		}
		var found []int64
		cfg := make(protocol.Configuration, n)
		for g := int64(lo); g < int64(hi); g++ {
			if g == int64(lo) {
				cfg = b.enc.Decode(g, cfg)
			} else {
				b.enc.DecodeNext(cfg)
			}
			if b.a.Legitimate(cfg) {
				found = append(found, g)
			}
		}
		perChunk[int64(lo)/grain] = found
		return nil
	})
	if err != nil {
		return err
	}
	for _, found := range perChunk {
		for _, g := range found {
			b.ball.Add(g)
			b.dist = append(b.dist, 0)
		}
	}
	return nil
}

// grow expands the ball by one mutation shell: every configuration at
// distance exactly k — the id range of shell k — spawns its
// single-process mutations in parallel chunks, and the batch insert
// (statespace.Dedup.AddChunks) admits the new ones at distance k+1 in the
// order a serial scan would. The shell goes in groups of about ballBatch
// mutations, so a ball that breaks the cap fails within one group of it.
// ctx is checked once per shell, at entry.
func (b *ballGrower) grow(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("checker: ball enumeration canceled at radius %d: %w", b.k, err)
	}
	n := b.a.Graph().N()
	end := b.ball.Len()
	shell := b.ball.Globals()[b.lo:end] // inserts only append, so the shell stays put
	perConfig := 0
	for p := 0; p < n; p++ {
		perConfig += b.a.StateCount(p) - 1
	}
	group := max(1, ballBatch/(max(1, perConfig)*ballGrain)) * ballGrain
	// Each chunk's mutations in generation order, all unresolved.
	to, ids := make([][]int64, group/ballGrain), make([][]int32, group/ballGrain)
	for glo := 0; glo < len(shell); glo += group {
		part := shell[glo:min(glo+group, len(shell))]
		_ = statespace.ForRanges(len(part), b.workers, ballGrain, func(clo, chi int) error {
			c, cfg := clo/ballGrain, make(protocol.Configuration, n)
			out, id := slices.Grow(to[c][:0], (chi-clo)*perConfig), slices.Grow(ids[c][:0], (chi-clo)*perConfig)
			for _, g := range part[clo:chi] {
				cfg = b.enc.Decode(g, cfg)
				for p := 0; p < n; p++ {
					orig := cfg[p]
					w := b.enc.Weight(p)
					for v := 0; v < b.a.StateCount(p); v++ {
						if v != orig {
							out, id = append(out, g+int64(v-orig)*w), append(id, -1)
						}
					}
				}
			}
			to[c], ids[c] = out, id
			return nil
		})
		chunks := (len(part) + ballGrain - 1) / ballGrain
		// Inclusive cap: the maxStates-th discovered state is admitted;
		// only the one after fails — the same semantics as the frontier
		// engine's discovery cap.
		added, ok := b.ball.AddChunks(to[:chunks], ids[:chunks], int(b.maxStates), b.workers)
		if !ok {
			return fmt.Errorf("checker: distance-%d fault ball exceeds the %d-state cap", b.k+1, b.maxStates)
		}
		b.dist = slices.Grow(b.dist, added)
		for range added {
			b.dist = append(b.dist, b.k+1)
		}
	}
	b.lo = end
	b.k++
	return nil
}

func (b *ballGrower) growTo(ctx context.Context, k int) error {
	for b.k < k {
		if err := b.grow(ctx); err != nil {
			return err
		}
	}
	return nil
}

// sorted returns the ball in ascending-global order with aligned
// distances — the canonical form every consumer (seed sets, cache files,
// local-distance mapping) shares. The returned slices are fresh.
func (b *ballGrower) sorted() ([]int64, []int) {
	outG, order := statespace.CanonicalOrder(b.ball.Globals(), b.workers)
	outD := make([]int, len(order))
	for i, o := range order {
		outD[i] = b.dist[o]
	}
	return outG, outD
}

// BallSweep is a resumable k-fault sweep: the fault ball and its forward
// closure, both grown incrementally. GrowToContext extends the ball one
// mutation shell at a time; SealContext explores exactly the closure
// states not yet discovered and snapshots a canonical subspace plus the
// sorted ball — bit-identical to the one-shot BallClosureContext at the
// current radius. A k+1 sweep therefore extends the k ball and its
// subspace instead of restarting. SealContext leaves the sweep growable;
// SweepKFaultsContext and BallClosureContext seal their last radius with
// an unexported consuming seal instead, which releases the ball grower and
// the builder's exploration state.
type BallSweep struct {
	a       protocol.Algorithm
	pol     scheduler.Policy
	opt     statespace.Options
	ball    *ballGrower
	builder *statespace.Builder // lazily created at first seal
	// extended is the radius the builder has been extended to: it holds
	// the closure of every ball member at distance <= extended.
	extended int
}

// NewBallSweepContext returns the radius-0 sweep: the ball is the
// legitimate set itself, enumerated in closed form when a implements
// protocol.LegitEnumerator and by a legitimacy scan otherwise, which
// checks ctx per chunk. opt has BallClosureContext's semantics (MaxStates
// caps ball and closure alike; results are independent of Workers).
func NewBallSweepContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options) (*BallSweep, error) {
	ball, err := newBallGrower(ctx, a, opt.Workers, opt.MaxStates)
	if err != nil {
		return nil, err
	}
	return &BallSweep{a: a, pol: pol, opt: opt, ball: ball, extended: -1}, nil
}

// GrowToContext grows the ball to radius k (a no-op when already there) —
// mutation shells only, no transition exploration (that happens at
// SealContext). ctx is checked once per shell.
func (s *BallSweep) GrowToContext(ctx context.Context, k int) error { return s.ball.growTo(ctx, k) }

// SealContext explores the forward closure of every ball configuration
// not yet explored and returns a canonical snapshot: the closure subspace
// plus the ball's globals and exact fault distances in ascending-global
// order — exactly what BallClosureContext returns from scratch, at the
// incremental cost of the new states only. The snapshot is independent of
// the sweep: grow and seal again freely. An empty ball (empty legitimate
// set) seals to a nil subspace with empty globals, mirroring
// BallClosureContext. ctx is checked at every BFS shell boundary.
func (s *BallSweep) SealContext(ctx context.Context) (*statespace.Space, []int64, []int, error) {
	return s.seal(ctx, false)
}

// seal is SealContext, and with last set the seal of a walk's last radius,
// which consumes the sweep: the ball grower is dropped as soon as the ball
// is sorted, before the closure exploration, and the builder seals with
// Finish, so the exploration, the seal and the caller's verdict never
// share the heap with the sweep's dead enumeration state. A consumed sweep
// cannot grow or seal again.
func (s *BallSweep) seal(ctx context.Context, last bool) (*statespace.Space, []int64, []int, error) {
	globals, dist := s.ball.sorted()
	k := s.ball.k
	if last {
		s.ball = nil
	}
	if len(globals) == 0 {
		return nil, globals, dist, nil
	}
	// The first seal, also the first cold one after warm radii, seeds the
	// new builder with the whole ball (extended is -1).
	if s.builder == nil {
		b, err := statespace.NewBuilder(s.a, s.pol, s.opt)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("checker: %w", err)
		}
		s.builder = b
	}
	// Extend with the ball members beyond the last extended radius, in
	// ascending order; any the closure already holds are dedup no-ops, so
	// only genuinely new states are explored.
	seeds := globals
	if s.extended >= 0 {
		seeds = nil
		for i, d := range dist {
			if d > s.extended {
				seeds = append(seeds, globals[i])
			}
		}
	}
	if err := s.builder.ExtendContext(ctx, seeds); err != nil {
		return nil, nil, nil, fmt.Errorf("checker: %w", err)
	}
	s.extended = k
	if last {
		return s.builder.Finish(), globals, dist, nil
	}
	return s.builder.Seal(), globals, dist, nil
}

// BallClosureContext enumerates the distance-≤k fault ball and
// frontier-explores its forward closure — exactly once each, as a
// BallSweep grown to k and sealed once. It returns the closure subspace
// together with the ball's global indexes and exact fault distances, so
// one exploration can feed
// both a full classification report (core.AnalyzeSpaceContext over the
// subspace) and the per-k verdicts (BallVerdictsOver). When the legitimate
// set is empty there is nothing to explore: the subspace is nil and
// globals is empty, with no error.
//
// A non-nil cache holds the closure under its (instance, policy, k) key.
// A hit re-derives the ball from the closure's legitimate states
// (closureBallGrower), so a fully warm pipeline runs zero algorithm
// callbacks; a miss enumerates, explores and stores the closure. ctx is
// checked per mutation shell and per BFS shell; a cancelled pipeline
// stores nothing.
func BallClosureContext(ctx context.Context, cache *spacecache.Cache, a protocol.Algorithm, pol scheduler.Policy, k int, opt statespace.Options) (*statespace.Space, []int64, []int, error) {
	if ss, ok := cache.LoadBallClosure(a, pol, k, opt); ok {
		b := closureBallGrower(ss, opt.MaxStates)
		if err := b.growTo(ctx, k); err != nil {
			ss.Close()
			return nil, nil, nil, err
		}
		globals, ballDist := b.sorted()
		return ss, globals, ballDist, nil
	}
	sweep, err := NewBallSweepContext(ctx, a, pol, opt)
	if err == nil {
		err = sweep.GrowToContext(ctx, k)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	ss, globals, ballDist, err := sweep.seal(ctx, true)
	if err != nil {
		return nil, nil, nil, err
	}
	if ss != nil {
		_ = cache.StoreBallClosure(ss, k) // best-effort persistence
	}
	return ss, globals, ballDist, nil
}

// BallVerdictAt classifies the k-fault convergence properties for exactly
// one radius over an already-built ball closure — the per-step verdict of
// an incremental sweep (BallVerdictsOver computes the whole 0..k range
// when a caller wants them all from one subspace). The distances to L
// and the divergence seeds are built side by side (verdictVectors). A nil
// subspace yields the vacuous verdict.
func BallVerdictAt(ss *statespace.Space, localDist []int, k int) KFaultVerdict {
	if ss == nil {
		return KFaultVerdict{K: k, Possible: true, Certain: true}
	}
	sp := FromSpace(ss)
	toL, diverging := sp.verdictVectors()
	return sp.checkKFaults(k, localDist, toL, diverging)
}

// SweepResult is the outcome of an incremental k-fault sweep.
type SweepResult struct {
	// Verdicts holds the k-fault verdict for every radius walked, in
	// ascending k; len(Verdicts)-1 is the last radius reached (kmax, or
	// the radius that broke convergence under StopAtBreak).
	Verdicts []KFaultVerdict
	// ClosureStates[k] is the number of states in the sealed closure at
	// radius k (0 when the legitimate set is empty).
	ClosureStates []int
	// CacheHits[k] reports whether radius k was served entirely from the
	// cache (no enumeration, no exploration).
	CacheHits []bool
	// BreaksCertainAt is the smallest walked k whose certain-convergence
	// verdict fails (-1 if none did), i.e. the largest tolerable fault
	// count plus one. BreaksPossibleAt is the analogue for possible
	// convergence.
	BreaksCertainAt  int
	BreaksPossibleAt int
	// Sub is the sealed closure at the last walked radius (nil when the
	// legitimate set is empty), with Globals/Dist the matching ball. When
	// the last radius was served from a warm cache, Sub may own a zero-copy
	// file mapping — Close it when done (a no-op otherwise).
	Sub     *statespace.Space
	Globals []int64
	Dist    []int
}

// afterVerdict, when non-nil, sees the walk's state right after each
// radius's verdict: the sweep (nil once the last radius has consumed it)
// and the radius's closure. Tests set it to check what the walk releases.
var afterVerdict func(k int, sweep *BallSweep, ss *statespace.Space)

// release closes and drops the last walked radius's subspace, which may
// own a warm-loaded file mapping, and its ball.
func (r *SweepResult) release() {
	if r.Sub != nil {
		r.Sub.Close()
	}
	r.Sub, r.Globals, r.Dist = nil, nil, nil
}

// SweepKFaultsContext walks k = 0..kmax on one BallSweep — one
// incremental ball enumeration and one incremental closure exploration in
// total: each radius extends the previous ball and subspace instead of
// restarting, and every per-k verdict is bit-identical to the from-scratch
// BallClosureContext + BallVerdictAt at that k. With stopAtBreak the walk
// ends at the smallest k whose certain-convergence verdict fails — the
// "how many faults can the system absorb" search loop.
//
// A non-nil cache makes the sweep cache-aware end to end: radii whose
// closure is persisted are served with zero algorithm callbacks (the
// sweep's ball is seeded from the first loaded closure's legitimate states
// and regrown), and at the first radius that misses the same sweep
// explores that radius's whole closure from its ball, as a cold sweep's
// radius 0 does, and extends it from there. ctx is checked at every
// sweep-radius boundary and threads through to the shell-granular checks of the ball enumeration and closure exploration,
// so a cancelled sweep returns an error wrapping ctx.Err() without
// finishing the walk, and the cache only ever sees completed radii.
//
// The walk holds one radius at a time: radius k-1's closure and its memos
// are released before radius k grows. The last radius (k == kmax)
// consumes the sweep: the ball grower is dropped once the ball is sorted,
// before the closure exploration, and the builder seals with Finish, so
// the verdict's passes run with only the sealed closure and the sorted
// ball alive.
func SweepKFaultsContext(ctx context.Context, cache *spacecache.Cache, a protocol.Algorithm, pol scheduler.Policy, kmax int, opt statespace.Options, stopAtBreak bool) (*SweepResult, error) {
	if kmax < 0 {
		return nil, fmt.Errorf("checker: negative sweep radius %d", kmax)
	}
	res := &SweepResult{BreaksCertainAt: -1, BreaksPossibleAt: -1}
	// fail releases the last walked radius's subspace, which may own a
	// warm-loaded file mapping, before returning err: no result carries it.
	fail := func(err error) (*SweepResult, error) {
		res.release()
		return nil, err
	}
	var sweep *BallSweep // the one ball of the whole walk
	warm := true         // every radius so far was served from the cache
	for k := 0; k <= kmax; k++ {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("checker: sweep canceled at radius %d: %w", k, err))
		}
		var ss *statespace.Space
		if warm {
			loaded, ok := cache.LoadBallClosure(a, pol, k, opt)
			if ok && sweep == nil {
				// The first loaded closure seeds the ball.
				sweep = &BallSweep{a: a, pol: pol, opt: opt, ball: closureBallGrower(loaded, opt.MaxStates), extended: -1}
			}
			ss, warm = loaded, ok
		}
		if sweep == nil {
			var err error
			if sweep, err = NewBallSweepContext(ctx, a, pol, opt); err != nil {
				return fail(err)
			}
		}
		// Radius k-1's closure has served its verdict: release it before
		// radius k grows, so the walk never holds two sealed closures.
		res.release()
		if err := sweep.GrowToContext(ctx, k); err != nil {
			if warm {
				ss.Close()
			}
			return fail(err)
		}
		var (
			globals []int64
			dist    []int
		)
		last := k == kmax
		if warm {
			globals, dist = sweep.ball.sorted()
		} else {
			var err error
			if ss, globals, dist, err = sweep.seal(ctx, last); err != nil {
				return fail(err)
			}
			if ss != nil {
				_ = cache.StoreBallClosure(ss, k) // best-effort persistence
			}
		}
		if last {
			sweep = nil // nothing reads the ball or the builder again
		}
		v := BallVerdictAt(ss, BallLocalDistances(ss, globals, dist), k)
		if afterVerdict != nil {
			afterVerdict(k, sweep, ss)
		}
		res.Verdicts = append(res.Verdicts, v)
		states := 0
		if ss != nil {
			states = ss.NumStates()
		}
		res.ClosureStates = append(res.ClosureStates, states)
		res.CacheHits = append(res.CacheHits, warm)
		// One sweep.radius event per sealed radius, in ascending-k order
		// (the walk is sequential, so the stream is deterministic).
		o := obs.Or(opt.Obs)
		o.Counter("sweep.radii").Add(1)
		if o.On() {
			o.Emit("sweep.radius", obs.SweepRadius{
				K:        k,
				Ball:     len(globals),
				Closure:  states,
				Possible: v.Possible,
				Certain:  v.Certain,
				CacheHit: warm,
			})
		}
		res.Sub, res.Globals, res.Dist = ss, globals, dist
		if !v.Possible && res.BreaksPossibleAt < 0 {
			res.BreaksPossibleAt = k
		}
		if !v.Certain && res.BreaksCertainAt < 0 {
			res.BreaksCertainAt = k
			if stopAtBreak {
				break
			}
		}
	}
	return res, nil
}
