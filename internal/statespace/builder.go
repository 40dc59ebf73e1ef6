// The resumable face of the frontier engine. BuildFromContext answers one-shot
// questions — "explore the closure of this seed set" — but the k-fault
// sweeps of the checker grow their seed set incrementally: the distance-
// (k+1) ball is the distance-k ball plus one shell. Re-running BuildFromContext
// per k re-explores the shared interior every time. Builder keeps the
// exploration state alive between seed waves instead: ExtendContext adds
// and explores exactly the states not yet discovered, and Seal snapshots
// the current closure as a canonical Space without disturbing the
// builder — so a k=0..kmax sweep pays for one exploration of the final
// closure, total, while still observing a sealed subspace at every k.
//
// Sealing canonicalizes a *copy*: the builder's own table and CSR stay in
// discovery order, which is what makes further ExtendContext calls valid.
// Because an explored closure is a pure function of (algorithm, policy, seed
// set) — canonicalization erases discovery order — a sealed snapshot is
// bit-identical to BuildFromContext over the union of all seed waves, which
// the parity tests pin.
package statespace

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// Builder is a resumable frontier exploration: a BuildFromContext whose seed
// set can grow between explorations. The zero value is not usable; call
// NewBuilder or ResumeFrom.
type Builder struct {
	alg       protocol.Algorithm
	pol       scheduler.Policy
	enc       *protocol.Encoder
	workers   int
	maxStates int64

	table *Dedup
	off   []int64
	succ  []int32
	prob  []float64
	legit []bool
	// explored counts the states whose successor rows are already in the
	// CSR; states [explored, table.Len()) are the pending BFS frontier.
	// ExtendContext restores the invariant explored == table.Len() (closure).
	explored int

	// o and shell instrument the exploration: one frontier.shell event
	// per BFS level (emitted from the serial stitch, so the stream is
	// deterministic), numbered across the builder's whole lifetime.
	o     *obs.Observer
	shell int

	pool   sync.Pool
	chunks []frontierChunk
}

// NewBuilder returns an empty resumable exploration of a's configuration
// space under pol. opt has BuildFromContext's semantics: MaxStates caps the
// total number of discovered states across all ExtendContext calls (0 means
// DefaultMaxStates), and the explored closure is deterministic and
// independent of opt.Workers.
func NewBuilder(a protocol.Algorithm, pol scheduler.Policy, opt Options) (*Builder, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	b := &Builder{
		alg:       a,
		pol:       pol,
		enc:       enc,
		workers:   resolveWorkers(opt.Workers, math.MaxInt),
		maxStates: StateCap(opt.MaxStates),
		table:     NewDedup(enc.Total()),
		off:       []int64{0},
		o:         obs.Or(opt.Obs),
	}
	b.pool.New = func() any { return newExplorer(a, pol, enc) }
	return b, nil
}

// ResumeFrom returns a builder whose already-explored closure is a deep copy
// of the sealed closure ss — the resume path of incremental sweeps whose
// earlier radii were loaded from an on-disk cache rather than explored in
// this process. ss is not touched or aliased: the builder can grow while ss
// keeps serving analyses. ss must be a seed-set closure (non-nil Globals),
// which every Space produced by BuildFromContext or Seal, and every loaded
// one of them, is.
func ResumeFrom(ss *Space, opt Options) (*Builder, error) {
	b, err := NewBuilder(ss.Alg, ss.Pol, opt)
	if err != nil {
		return nil, err
	}
	if int64(ss.States) > b.maxStates {
		return nil, fmt.Errorf("statespace: resumed subspace of %d states exceeds the %d-state cap", ss.States, b.maxStates)
	}
	if ss.Globals() == nil {
		return nil, fmt.Errorf("statespace: ResumeFrom needs a seed-set closure, not the full index range")
	}
	off, succ, prob := ss.CSR()
	b.off = slices.Clone(off)
	b.succ = slices.Clone(succ)
	b.prob = slices.Clone(prob)
	b.legit = slices.Clone(ss.Legit)
	b.table = NewDedupFromGlobals(b.enc.Total(), ss.Globals())
	b.explored = ss.States
	return b, nil
}

// Len returns the number of discovered states.
func (b *Builder) Len() int { return b.table.Len() }

// Contains reports whether the global configuration index g has been
// discovered.
func (b *Builder) Contains(g int64) bool { return b.table.Lookup(g) >= 0 }

// addSeeds admits seed globals into the discovered set (duplicates and
// already-discovered states are no-ops), leaving them on the pending
// frontier for the next explore.
func (b *Builder) addSeeds(seeds []int64) error {
	for _, g := range seeds {
		if g < 0 || g >= b.enc.Total() {
			return fmt.Errorf("statespace: seed index %d outside configuration space [0,%d)", g, b.enc.Total())
		}
		b.table.Add(g)
	}
	// Inclusive cap: exactly maxStates distinct seeds are admitted.
	if int64(b.table.Len()) > b.maxStates {
		return fmt.Errorf("statespace: %d seeds exceed the %d-state cap", b.table.Len(), b.maxStates)
	}
	return nil
}

// explore runs the level-synchronous parallel BFS until the discovered set
// is closed under successors — the loop of BuildFromContext, resuming from
// whatever was explored before. ctx is checked once per BFS shell (between
// the serial stitch of one level and the parallel expansion of the next),
// so a cancelled exploration stops at the next shell boundary. On error
// the builder is no longer usable.
func (b *Builder) explore(ctx context.Context) error {
	for lo := b.explored; lo < b.table.Len(); {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("statespace: exploration canceled at shell %d: %w", b.shell, err)
		}
		hi := b.table.Len()
		level := b.table.Globals()[lo:hi] // expansion only reads, so no insert moves it
		numChunks := (len(level) + frontierGrain - 1) / frontierGrain
		if len(b.chunks) < numChunks {
			// Keep the existing chunks: their buffers are reused below.
			b.chunks = append(b.chunks, make([]frontierChunk, numChunks-len(b.chunks))...)
		}
		chunks := b.chunks[:numChunks]

		// Parallel expansion of the level: rows with global targets, plus
		// read-only dedup resolutions of the targets already discovered.
		// Each chunk refills the buffers it had in earlier shells, so the
		// steady state allocates nothing per shell.
		err := ForRanges(len(level), b.workers, frontierGrain, func(clo, chi int) error {
			ex := b.pool.Get().(*explorer)
			defer b.pool.Put(ex)
			ck := &chunks[clo/frontierGrain]
			ck.deg = slices.Grow(ck.deg[:0], chi-clo)[:chi-clo]
			ck.legit = slices.Grow(ck.legit[:0], chi-clo)[:chi-clo]
			ck.to, ck.local, ck.prob, ck.fresh = ck.to[:0], ck.local[:0], ck.prob[:0], 0
			for i := clo; i < chi; i++ {
				g := level[i]
				ex.cfg = b.enc.Decode(g, ex.cfg)
				legit, err := ex.exploreState(g)
				if err != nil {
					return err
				}
				ck.legit[i-clo] = legit
				ck.deg[i-clo] = int32(len(ex.outTo))
				for j, t := range ex.outTo {
					l := b.table.Lookup(t)
					if l < 0 {
						ck.fresh++
					}
					ck.to = append(ck.to, t)
					ck.local = append(ck.local, l)
					ck.prob = append(ck.prob, ex.outP[j])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// Size the CSR, and the table when new ids are possible, for the
		// whole level at once: one geometric growth per array per shell
		// instead of one per append overflow inside the stitch.
		rows, refs, fresh := 0, 0, 0
		for _, ck := range chunks {
			rows += len(ck.deg)
			refs += len(ck.to)
			fresh += ck.fresh
		}
		b.off = slices.Grow(b.off, rows)
		b.legit = slices.Grow(b.legit, rows)
		b.succ = slices.Grow(b.succ, refs)
		b.prob = slices.Grow(b.prob, refs)
		b.table.grow(min(fresh, int(b.maxStates)-b.table.Len()))

		// Serial stitch in chunk-and-row order: append the level's rows to
		// the CSR, assigning local ids to newly discovered targets in
		// deterministic order.
		for _, ck := range chunks {
			b.legit = append(b.legit, ck.legit...)
			b.prob = append(b.prob, ck.prob...)
			for i, l := range ck.local {
				if l < 0 {
					// Inclusive cap: the maxStates-th discovered state is
					// admitted; only the one after fails. The Len check
					// short-circuits first so the re-resolving Lookup (the
					// parallel-phase id may be stale — an earlier row of this
					// stitch can have discovered the target) only runs once
					// the table is full.
					if int64(b.table.Len()) >= b.maxStates && b.table.Lookup(ck.to[i]) < 0 {
						return fmt.Errorf("statespace: frontier exploration exceeds the %d-state cap", b.maxStates)
					}
					l = b.table.Add(ck.to[i])
				}
				b.succ = append(b.succ, l)
			}
			for _, d := range ck.deg {
				b.off = append(b.off, b.off[len(b.off)-1]+int64(d))
			}
		}
		// Observe the completed shell from the serial stitch: counters
		// always (nil-safe no-ops when off), the structured event only
		// when enabled so no payload is built on the disabled path.
		newStates := b.table.Len() - hi
		b.o.Counter("frontier.shells").Add(1)
		b.o.Counter("frontier.states").Add(int64(newStates))
		b.o.Counter("frontier.edges").Add(int64(refs))
		if b.o.On() {
			var dedup float64
			if refs > 0 {
				dedup = 1 - float64(newStates)/float64(refs)
			}
			b.o.Emit("frontier.shell", obs.FrontierShell{
				Shell:     b.shell,
				Expanded:  hi - lo,
				New:       newStates,
				States:    b.table.Len(),
				Edges:     int64(len(b.succ)),
				DedupRate: dedup,
			})
		}
		b.shell++
		lo = hi
	}
	b.explored = b.table.Len()
	return nil
}

// ExtendContext admits the seed globals and explores their forward
// closure, growing the discovered set by exactly the states not already
// known. A seed that was already discovered costs nothing. ctx is checked
// at every BFS shell boundary, so a cancelled extension returns an error
// wrapping ctx.Err() without finishing the closure. On error the builder
// is no longer usable.
func (b *Builder) ExtendContext(ctx context.Context, seeds []int64) error {
	before := b.table.Len()
	if err := b.addSeeds(seeds); err != nil {
		return err
	}
	// Seed admissions count toward the discovered-state total the same
	// way explored shells do.
	b.o.Counter("frontier.states").Add(int64(b.table.Len() - before))
	return b.explore(ctx)
}

// Seal snapshots the current closure as a canonical Space — local ids in
// ascending-global order, bit-identical to BuildFromContext over the union of
// every seed set extended so far. The snapshot is independent of the builder:
// later ExtendContext calls grow the builder without disturbing it. Sealing
// an empty builder (no seeds ever admitted) returns nil.
func (b *Builder) Seal() *Space { return b.seal(false) }

// seal builds the canonical Space; with move=true it takes ownership of
// the builder's arrays instead of copying (the one-shot BuildFromContext path —
// the builder must not be used afterwards).
func (b *Builder) seal(move bool) *Space {
	if b.table.Len() == 0 {
		return nil
	}
	ss := &Space{
		Alg:     b.alg,
		Pol:     b.pol,
		Enc:     b.enc,
		States:  b.table.Len(),
		Workers: b.workers,
	}
	if move {
		ss.off, ss.succ, ss.prob, ss.Legit, ss.table = b.off, b.succ, b.prob, b.legit, b.table
		ss.canonicalize()
		return ss
	}
	// Snapshot path: permute the discovery-order arrays straight into
	// fresh canonical storage — one pass, no in-place renumbering — and
	// give the snapshot the sealed binary-search table over its sorted
	// globals (a snapshot never grows, so it needs no hash table at all).
	// The builder's own discovery-order state is untouched.
	sorted, order := CanonicalOrder(b.table.Globals())
	ss.off, ss.succ, ss.prob, ss.Legit = permuteCSR(order, b.off, b.succ, b.prob, b.legit)
	ss.table = NewSortedDedup(sorted)
	return ss
}
