package checker

// The incremental k-fault machinery. A distance-(k+1) fault ball is the
// distance-k ball plus one mutation shell, and its forward closure extends
// the k closure — so a sweep over k = 0..kmax should pay for ONE ball
// enumeration and ONE closure exploration, not kmax of each. ballGrower
// keeps the mutation BFS resumable (grow one shell at a time), BallSweep
// pairs it with a resumable statespace.Builder for the closure, and
// SweepKFaultsContext drives the walk upward — sealing a canonical
// subspace and classifying the k-fault verdict at every radius, stopping
// early at the smallest k that breaks convergence when asked. Every sealed
// snapshot is bit-identical to the from-scratch
// FaultBallContext/BallClosureContext at that k (pinned by the parity
// tests), so incremental is purely a cost saving.
//
// An optional *spacecache.Cache adds on-disk persistence (nil means no
// caching): each sealed closure persists as one entry under its
// (instance, policy, k) key. The ball is not stored: a closure contains
// the whole legitimate set, so a warm run re-seeds the ball enumeration
// from the loaded closure's legitimate states (closureBallGrower) and
// regrows it — zero legitimacy scans, zero exploration, zero algorithm
// callbacks.

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// ballGrower is the resumable distance-ball enumeration: the legitimate
// seed set plus one mutation shell per grow call. Ids are assigned in
// discovery (= BFS) order, so the aligned distances are exact.
type ballGrower struct {
	a         protocol.Algorithm
	enc       *protocol.Encoder
	maxStates int64
	k         int // current radius: dist values span [0, k]
	ball      *statespace.Dedup
	dist      []int // aligned with ball ids
	cfg       protocol.Configuration
}

// newBallGrower returns the radius-0 ball (the legitimate set itself),
// seeded from the algorithm's closed-form enumeration when it implements
// protocol.LegitEnumerator and from a parallel legitimacy scan of the
// index range otherwise.
func newBallGrower(ctx context.Context, a protocol.Algorithm, workers int, maxStates int64) (*ballGrower, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	b := newGrowerOver(a, enc, maxStates, statespace.NewDedup(enc.Total()))
	if le, ok := a.(protocol.LegitEnumerator); ok {
		err = b.seedEnumerated(le)
	} else {
		err = b.seedScan(ctx, workers)
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

// resumeBallGrower rebuilds a grower from a previously produced ball
// (globals with aligned distances, any order) at radius k — the warm-cache
// resume path. The inputs are not aliased.
func resumeBallGrower(a protocol.Algorithm, k int, globals []int64, dist []int, maxStates int64) (*ballGrower, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	b := newGrowerOver(a, enc, maxStates, statespace.NewDedupFromGlobals(enc.Total(), globals))
	b.k, b.dist = k, append([]int(nil), dist...)
	if int64(b.ball.Len()) > b.maxStates {
		return nil, fmt.Errorf("checker: resumed distance-%d ball of %d configurations exceeds the %d-state cap", k, b.ball.Len(), b.maxStates)
	}
	return b, nil
}

// closureBallGrower returns the radius-0 ball re-derived from ss, the
// sealed forward closure of a fault ball (as a cache entry holds it). The
// closure contains the ball's distance-0 members, the whole legitimate
// set, so its legitimate states are exactly L: they seed the grower in
// place of LegitEnumerator or the legitimacy scan, with no algorithm
// callbacks, and growTo(k) then yields what FaultBallContext yields at k.
func closureBallGrower(ss *statespace.Space, maxStates int64) *ballGrower {
	b := newGrowerOver(ss.Alg, ss.Enc, maxStates, statespace.NewDedup(ss.Enc.Total()))
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
func newGrowerOver(a protocol.Algorithm, enc *protocol.Encoder, maxStates int64, ball *statespace.Dedup) *ballGrower {
	return &ballGrower{
		a:         a,
		enc:       enc,
		maxStates: statespace.StateCap(maxStates),
		ball:      ball,
		cfg:       make(protocol.Configuration, a.Graph().N()),
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
func (b *ballGrower) seedScan(ctx context.Context, workers int) error {
	total := b.enc.Total()
	if total > int64(math.MaxInt) {
		return fmt.Errorf("checker: %d configurations exceed the platform index range", total)
	}
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
	statespace.ForRanges(int(total), workers, int(grain), func(lo, hi int) bool {
		if ctx.Err() != nil {
			return false // the post-pool ctx check reports the cause
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
		return true
	})
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("checker: legitimacy scan canceled: %w", err)
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
// distance exactly k spawns its single-process mutations, and the new ones
// enter at distance k+1. ctx is checked once per shell, at entry.
func (b *ballGrower) grow(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("checker: ball enumeration canceled at radius %d: %w", b.k, err)
	}
	n := b.a.Graph().N()
	end := b.ball.Len() // new entries land at dist k+1; don't re-expand them
	for i := 0; i < end; i++ {
		if b.dist[i] != b.k {
			continue
		}
		g := b.ball.Globals()[i]
		b.cfg = b.enc.Decode(g, b.cfg)
		for p := 0; p < n; p++ {
			orig := b.cfg[p]
			w := b.enc.Weight(p)
			for v := 0; v < b.a.StateCount(p); v++ {
				if v == orig {
					continue
				}
				ng := g + int64(v-orig)*w
				if b.ball.Lookup(ng) < 0 {
					// Inclusive cap: the maxStates-th discovered state is
					// admitted; only the one after fails — the same
					// semantics as the frontier engine's discovery cap.
					if int64(b.ball.Len()) >= b.maxStates {
						return fmt.Errorf("checker: distance-%d fault ball exceeds the %d-state cap", b.k+1, b.maxStates)
					}
					b.ball.Add(ng)
					b.dist = append(b.dist, b.k+1)
				}
			}
		}
	}
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
	outG, order := statespace.CanonicalOrder(b.ball.Globals())
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
// sorted ball — bit-identical to the from-scratch FaultBallContext +
// BallClosureContext at the current radius. A k+1 sweep therefore extends
// the k ball and its subspace instead of restarting.
type BallSweep struct {
	a       protocol.Algorithm
	pol     scheduler.Policy
	opt     statespace.Options
	ball    *ballGrower
	builder *statespace.Builder // lazily created at first seal
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
	return &BallSweep{a: a, pol: pol, opt: opt, ball: ball}, nil
}

// ResumeBallSweep rebuilds a sweep at radius k from a previously produced
// ball (globals and aligned distances, as FaultBallContext or SealContext
// returns them) and, optionally, its sealed closure subspace — how a sweep
// extends a prefix of radii served from the cache. ss may be nil: the closure is then explored from
// the ball at the next SealContext. ss is deep-copied, never aliased or
// mutated.
func ResumeBallSweep(a protocol.Algorithm, pol scheduler.Policy, k int, globals []int64, dist []int, ss *statespace.Space, opt statespace.Options) (*BallSweep, error) {
	if len(globals) != len(dist) {
		return nil, fmt.Errorf("checker: ball of %d globals with %d distances", len(globals), len(dist))
	}
	ball, err := resumeBallGrower(a, k, globals, dist, opt.MaxStates)
	if err != nil {
		return nil, err
	}
	s := &BallSweep{a: a, pol: pol, opt: opt, ball: ball}
	if ss != nil {
		if s.builder, err = statespace.ResumeFrom(ss, opt); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// K returns the current ball radius.
func (s *BallSweep) K() int { return s.ball.k }

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
	globals, dist := s.ball.sorted()
	if len(globals) == 0 {
		return nil, globals, dist, nil
	}
	if s.builder == nil {
		b, err := statespace.NewBuilder(s.a, s.pol, s.opt)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("checker: %w", err)
		}
		s.builder = b
	}
	// Extend with the whole ball: already-discovered members are dedup
	// no-ops, so only genuinely new states are explored.
	if err := s.builder.ExtendContext(ctx, globals); err != nil {
		return nil, nil, nil, fmt.Errorf("checker: %w", err)
	}
	return s.builder.Seal(), globals, dist, nil
}

// BallClosureContext enumerates the distance-≤k fault ball
// (FaultBallContext) and frontier-explores its forward closure — exactly
// once each. It returns the closure subspace together with the ball's
// global indexes and exact fault distances, so one exploration can feed
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
	globals, ballDist, err := FaultBallContext(ctx, a, k, opt.Workers, opt.MaxStates)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(globals) == 0 {
		return nil, globals, ballDist, nil
	}
	ss, err := statespace.BuildFromContext(ctx, a, pol, globals, opt)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("checker: %w", err)
	}
	_ = cache.StoreBallClosure(ss, k) // best-effort persistence
	return ss, globals, ballDist, nil
}

// BallVerdictAt classifies the k-fault convergence properties for exactly
// one radius over an already-built ball closure — the per-step verdict of
// an incremental sweep (BallVerdictsOver computes the whole 0..k range
// when a caller wants them all from one subspace). A nil subspace yields
// the vacuous verdict.
func BallVerdictAt(ss *statespace.Space, localDist []int, k int) KFaultVerdict {
	if ss == nil {
		return KFaultVerdict{K: k, Possible: true, Certain: true}
	}
	sp := FromSpace(ss)
	return sp.checkKFaults(k, localDist, sp.reverseReach(), sp.divergingStates())
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

// SweepKFaultsContext walks k = 0..kmax with one incremental ball
// enumeration and one incremental closure exploration in total: each
// radius extends the previous ball and subspace instead of restarting, and
// every per-k verdict is bit-identical to the from-scratch BallVerdicts at
// that k. With stopAtBreak the walk ends at the smallest k whose
// certain-convergence verdict fails — the "how many faults can the system
// absorb" search loop.
//
// A non-nil cache makes the sweep cache-aware end to end: radii whose
// closure is persisted are served with zero algorithm callbacks (the ball
// is regrown from the first loaded closure's legitimate states), and the
// sweep resumes incremental exploration at the first radius that misses.
// ctx is checked at every sweep-radius boundary and threads through to the
// shell-granular checks of the ball enumeration and closure exploration,
// so a cancelled sweep returns an error wrapping ctx.Err() without
// finishing the walk, and the cache only ever sees completed radii.
func SweepKFaultsContext(ctx context.Context, cache *spacecache.Cache, a protocol.Algorithm, pol scheduler.Policy, kmax int, opt statespace.Options, stopAtBreak bool) (*SweepResult, error) {
	if kmax < 0 {
		return nil, fmt.Errorf("checker: negative sweep radius %d", kmax)
	}
	res := &SweepResult{BreaksCertainAt: -1, BreaksPossibleAt: -1}
	// fail releases the last walked radius's subspace, which may own a
	// warm-loaded file mapping, before returning err: no result carries it.
	fail := func(err error) (*SweepResult, error) {
		if res.Sub != nil {
			res.Sub.Close()
		}
		return nil, err
	}
	var (
		sweep *BallSweep
		warm  *ballGrower // the warm prefix's ball, seeded from its first closure
	)
	for k := 0; k <= kmax; k++ {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("checker: sweep canceled at radius %d: %w", k, err))
		}
		var (
			ss      *statespace.Space
			globals []int64
			dist    []int
			hit     bool
		)
		if sweep == nil {
			// Warm path: serve radius k entirely from the cache.
			if loaded, ok := cache.LoadBallClosure(a, pol, k, opt); ok {
				if warm == nil {
					warm = closureBallGrower(loaded, opt.MaxStates)
				}
				if err := warm.growTo(ctx, k); err != nil {
					loaded.Close()
					return fail(err)
				}
				globals, dist = warm.sorted()
				ss, hit = loaded, true
			} else {
				// First cold radius: resume from the last warm radius, or
				// start fresh at k=0.
				var err error
				if res.Sub != nil {
					sweep, err = ResumeBallSweep(a, pol, k-1, res.Globals, res.Dist, res.Sub, opt)
				} else {
					sweep, err = NewBallSweepContext(ctx, a, pol, opt)
				}
				if err != nil {
					return fail(err)
				}
			}
		}
		if !hit {
			if err := sweep.GrowToContext(ctx, k); err != nil {
				return fail(err)
			}
			var err error
			if ss, globals, dist, err = sweep.SealContext(ctx); err != nil {
				return fail(err)
			}
			if ss != nil {
				_ = cache.StoreBallClosure(ss, k) // best-effort persistence
			}
		}
		v := BallVerdictAt(ss, BallLocalDistances(ss, globals, dist), k)
		res.Verdicts = append(res.Verdicts, v)
		states := 0
		if ss != nil {
			states = ss.NumStates()
		}
		res.ClosureStates = append(res.ClosureStates, states)
		res.CacheHits = append(res.CacheHits, hit)
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
				CacheHit: hit,
			})
		}
		if res.Sub != nil && res.Sub != ss {
			// A warm-loaded subspace may own a zero-copy mapping; release it
			// once the walk has extended past its radius (ResumeBallSweep
			// deep-copied whatever it needed).
			res.Sub.Close()
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
