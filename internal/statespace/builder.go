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
// Finish is the consuming last seal: the one-shot BuildFromContext and the
// sweep's last radius take it, releasing the builder's table and segments
// as soon as the canonical space no longer needs them.
//
// Sealing canonicalizes a *copy*: the builder's own table and CSR stay in
// discovery order, which is what makes further ExtendContext calls valid.
// The CSR is a list of per-level segments that later levels never touch,
// so no BFS level ever re-copies the rows of the earlier ones.
// Because an explored closure is a pure function of (algorithm, policy, seed
// set) — canonicalization erases discovery order — a sealed snapshot is
// bit-identical to BuildFromContext over the union of all seed waves, which
// the parity tests pin.
package statespace

import (
	"context"
	"errors"
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
// NewBuilder. Seal snapshots the closure and keeps the
// builder growable; Finish snapshots it and consumes the builder, which
// is the cheaper seal when no extension follows.
type Builder struct {
	alg       protocol.Algorithm
	pol       scheduler.Policy
	enc       *protocol.Encoder
	workers   int
	maxStates int64

	table *Dedup
	// shells holds the discovery-order CSR as one segment per explored
	// BFS level, ascending in base; edges
	// counts their references. explored counts the states whose successor
	// rows are stored; states [explored, table.Len()) are the pending BFS
	// frontier. ExtendContext restores explored == table.Len() (closure).
	shells   []shellRows
	edges    int64
	explored int

	// o and shell instrument the exploration: one frontier.shell event
	// per BFS level (emitted between the level's insertion phase and the
	// next expansion, so the stream is deterministic), numbered across
	// the builder's whole lifetime. Sealed spaces carry o.
	o     *obs.Observer
	shell int

	// pool is a pointer because a sync.Pool, once used, sits in a
	// runtime-global list until the next garbage collection: embedded, it
	// would keep a dropped builder, table and segments included, alive
	// through one more collection.
	pool   *sync.Pool
	chunks []frontierChunk // one exploration's chunk buffers, reused across its levels
}

// shellRows is one segment of a Builder's discovery-order CSR: the rows of
// the local ids [base, base+len(legit)), with offsets relative to the
// segment and probabilities coded into the segment's own palette. A
// segment is written once, when its level is explored.
type shellRows struct {
	base  int
	off   []int64 // len(legit)+1 offsets into succ/prob, off[0] == 0
	succ  []int32
	prob  Probs
	legit []bool
}

// shellOf returns the index of the segment holding local id o and o's row
// in it.
func shellOf(shells []shellRows, o int32) (int, int) {
	lo, hi := 0, len(shells)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if shells[mid].base <= int(o) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, int(o) - shells[lo].base
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
		o:         obs.Or(opt.Obs),
	}
	b.pool = &sync.Pool{New: func() any { return newExplorer(a, pol, enc) }}
	return b, nil
}

// Len returns the number of discovered states (0 after Finish).
func (b *Builder) Len() int {
	if b.table == nil {
		return 0
	}
	return b.table.Len()
}

// addSeeds admits seed globals into the discovered set (duplicates and
// already-discovered states are no-ops), leaving them on the pending
// frontier for the next explore. The seeds go in as one unlimited
// AddChunks batch, so new ones get ids in seed order as serial Adds would
// give them, and the cap is checked after.
func (b *Builder) addSeeds(seeds []int64) error {
	for _, g := range seeds {
		if g < 0 || g >= b.enc.Total() {
			return fmt.Errorf("statespace: seed index %d outside configuration space [0,%d)", g, b.enc.Total())
		}
	}
	ids := slices.Repeat([]int32{-1}, len(seeds))
	b.table.AddChunks([][]int64{seeds}, [][]int32{ids}, math.MaxInt, b.workers)
	// Inclusive cap: exactly maxStates distinct seeds are admitted.
	if int64(b.table.Len()) > b.maxStates {
		return fmt.Errorf("statespace: %d seeds exceed the %d-state cap", b.table.Len(), b.maxStates)
	}
	return nil
}

// explore runs the level-synchronous parallel BFS until the discovered set
// is closed under successors — the loop of BuildFromContext, resuming from
// whatever was explored before. ctx is checked once per BFS shell (between
// the insertion phase of one level and the parallel expansion of the
// next), so a cancelled exploration stops at the next shell boundary. On
// error the builder is no longer usable.
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

		// Parallel expansion of the level: rows with global targets. The
		// table is not probed here: AddChunks resolves every target with
		// shard-local probes. Each chunk refills the buffers it had in
		// earlier shells of this exploration.
		err := ForRanges(len(level), b.workers, frontierGrain, func(clo, chi int) error {
			ex := b.pool.Get().(*explorer)
			defer b.pool.Put(ex)
			ck := &chunks[clo/frontierGrain]
			ck.deg = slices.Grow(ck.deg[:0], chi-clo)[:chi-clo]
			ck.legit = slices.Grow(ck.legit[:0], chi-clo)[:chi-clo]
			ck.to = ck.to[:0]
			ck.prob.reset()
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
					ck.to = append(ck.to, t)
					ck.prob.add(ex.outP[j])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}

		// The level's segment, exactly sized: each chunk's rows and
		// references land in parallel at prefix-summed offsets, its codes
		// remapped to the sorted union of the chunks' palettes.
		rows, refs := 0, 0
		frags := make([]Probs, numChunks)
		for c := range chunks {
			chunks[c].rowAt, chunks[c].refAt = rows, refs
			rows += len(chunks[c].deg)
			refs += len(chunks[c].to)
			frags[c] = chunks[c].prob.view()
		}
		pal, coded := unionPalette(frags)
		seg := shellRows{
			base:  lo,
			off:   make([]int64, rows+1),
			succ:  make([]int32, refs),
			prob:  newProbs(pal, coded, int64(refs)),
			legit: make([]bool, rows),
		}
		to, ids := make([][]int64, numChunks), make([][]int32, numChunks)
		for c := range chunks {
			ck := &chunks[c]
			to[c], ids[c] = ck.to, seg.succ[ck.refAt:ck.refAt+len(ck.to)]
		}
		_ = ForRanges(numChunks, b.workers, 1, func(c, _ int) error {
			ck := &chunks[c]
			for i := range ids[c] {
				ids[c][i] = -1 // every target is resolved by AddChunks
			}
			m := remapTo(pal, frags[c])
			seg.prob.copyRows(int64(ck.refAt), frags[c], 0, int64(len(ck.to)), &m)
			copy(seg.legit[ck.rowAt:], ck.legit)
			at := int64(ck.refAt)
			for i, d := range ck.deg {
				at += int64(d)
				seg.off[ck.rowAt+i+1] = at
			}
			return nil
		})
		// Assign local ids to the newly discovered targets, resolving the
		// segment's references in place. Inclusive cap: a level that
		// brings the total to exactly maxStates is admitted.
		newStates, ok := b.table.AddChunks(to, ids, int(b.maxStates), b.workers)
		if !ok {
			return fmt.Errorf("statespace: frontier exploration exceeds the %d-state cap", b.maxStates)
		}

		b.shells = append(b.shells, seg)
		b.edges += int64(refs)

		// Observe the completed shell: counters always (nil-safe no-ops
		// when off), the structured event only when enabled so no payload
		// is built on the disabled path.
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
				Edges:     b.edges,
				DedupRate: dedup,
			})
		}
		b.shell++
		lo = hi
	}
	b.explored = b.table.Len()
	// The chunk buffers serve the levels of one exploration; a sealed
	// snapshot and its analyses need the memory more than the next
	// extension needs the buffers.
	b.chunks = nil
	return nil
}

// ExtendContext admits the seed globals and explores their forward
// closure, growing the discovered set by exactly the states not already
// known. A seed that was already discovered costs nothing. ctx is checked
// at every BFS shell boundary, so a cancelled extension returns an error
// wrapping ctx.Err() without finishing the closure. On error, and after
// Finish, the builder is no longer usable.
func (b *Builder) ExtendContext(ctx context.Context, seeds []int64) error {
	if b.table == nil {
		return errors.New("statespace: ExtendContext on a finished Builder")
	}
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
//
// The discovery-order segments are permuted straight into fresh canonical
// storage, and the snapshot keeps its sorted globals, which LocalIndex
// binary-searches (a snapshot never grows, so it needs no hash table).
func (b *Builder) Seal() *Space { return b.seal(false) }

// Finish is the builder's last seal: it returns what Seal would, but
// consumes the builder on the way. The Dedup table is released once the
// canonical sort has read its globals, before the canonical CSR is
// allocated, and the discovery-order segments once they are permuted, so
// the returned space, and whatever analyses its caller runs next, never
// share the heap with the builder's exploration state. Afterwards the
// builder is unusable: ExtendContext returns an error, Len is 0, and Seal
// and Finish return nil.
func (b *Builder) Finish() *Space { return b.seal(true) }

// seal is Seal and, when consume is set, Finish.
func (b *Builder) seal(consume bool) *Space {
	table, shells := b.table, b.shells
	if consume {
		b.table, b.shells = nil, nil
	}
	if table == nil || table.Len() == 0 {
		return nil
	}
	n := table.Len()
	sorted, order := CanonicalOrder(table.Globals(), b.workers)
	ss := &Space{
		Alg:     b.alg,
		Pol:     b.pol,
		Enc:     b.enc,
		States:  n,
		Workers: b.workers,
		Obs:     b.o,
		globals: sorted,
	}
	ss.off, ss.succ, ss.probs, ss.Legit = permuteCSR(order, shells, b.edges, b.workers)
	return ss
}
