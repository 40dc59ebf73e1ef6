// The frontier engine: the package's second exploration mode. Where Build
// sweeps the full mixed-radix index range, BuildFromContext runs a parallel
// multi-source BFS from a seed set and discovers only the states reachable
// from it — so analyses over a bounded region (the k-fault ball of the
// k-stabilization literature, the forward closure of L, a single suspect
// configuration) pay for the region's closure, not for the whole space.
// The result is a Space over dense *local* ids plus the local↔global
// Dedup table (a flat open-addressing hash table when the index range is
// too large for a dense visited array).
//
// Determinism: exploration alternates a parallel expansion phase (workers
// claim fixed-grain chunks of the current BFS level and compute successor
// rows with global targets) with a parallel insertion phase: the level's
// rows land at prefix-summed offsets in a storage segment of their own,
// and Dedup.AddChunks resolves every target shard by shard, giving new
// states ids in the order a serial insert in chunk-and-row order would.
// Sealing canonicalizes local ids to ascending-global order, so the Space
// — rows, probabilities, legitimacy, and every analysis run over it — is a
// pure function of (algorithm, policy, seed set), independent of worker
// count and discovery schedule. Because BFS closes the successor relation
// before the space is sealed, downstream condensations (Tarjan over the
// transient subgraph, the hitting-time block solver) see exactly the
// closed reachable edge set.
package statespace

import (
	"context"
	"fmt"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// frontierGrain is the chunk size workers claim from the current BFS
// level. It is a constant — never derived from the worker count — so the
// chunk order of the insertion phase, and with it every assigned local id,
// is identical for every pool size.
const frontierGrain = 1 << 10

// frontierChunk is one chunk's exploration output: per-state degrees and
// legitimacy, and the concatenated successor rows with global targets and
// coded probabilities. rowAt and refAt place the chunk's rows and
// references in its level's segment.
type frontierChunk struct {
	deg          []int32
	legit        []bool
	to           []int64
	prob         probBuf
	rowAt, refAt int
}

// BuildFromContext explores the forward closure of the seed set (global
// configuration indexes under the canonical encoder of a, i.e.
// protocol.NewEncoder(a, 0)) under pol with a parallel frontier BFS and
// returns the discovered closure. Duplicate seeds are deduplicated.
// opt.MaxStates caps the number of *discovered* states (0 means
// DefaultMaxStates) — unlike BuildContext, the full index range may exceed
// the int32 state-index limit, since only discovered states need local
// ids. The result is deterministic and independent of opt.Workers. ctx is
// checked at every BFS shell boundary, so a cancelled exploration returns
// an error wrapping ctx.Err() at the next shell without producing a space.
//
// BuildFromContext is the one-shot face of the resumable Builder: callers
// that grow their seed set incrementally (the checker's k-fault sweeps)
// keep a Builder alive and extend it instead of rebuilding per wave. It
// never extends again, so it seals with Finish: the discovery table is
// freed before the canonical CSR is allocated.
func BuildFromContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, seeds []int64, opt Options) (*Space, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("statespace: BuildFromContext needs at least one seed")
	}
	b, err := NewBuilder(a, pol, opt)
	if err != nil {
		return nil, err
	}
	if err := b.ExtendContext(ctx, seeds); err != nil {
		return nil, err
	}
	return b.Finish(), nil
}

// EncodeConfigs validates each configuration against a's process domains
// and encodes it to its global mixed-radix index under a's canonical
// encoder — the seed-set preparation of the configuration-seeded cached
// build in internal/spacecache.
func EncodeConfigs(a protocol.Algorithm, cfgs []protocol.Configuration) ([]int64, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	n := a.Graph().N()
	seeds := make([]int64, len(cfgs))
	for i, cfg := range cfgs {
		if len(cfg) != n {
			return nil, fmt.Errorf("statespace: seed %d has %d process states, want %d", i, len(cfg), n)
		}
		for p, v := range cfg {
			if v < 0 || v >= a.StateCount(p) {
				return nil, fmt.Errorf("statespace: seed %d: state %d out of domain [0,%d) at p=%d", i, v, a.StateCount(p), p)
			}
		}
		seeds[i] = enc.Encode(cfg)
	}
	return seeds, nil
}

// sealGrain is the fixed chunk size of the seal's parallel passes (the
// radix sort's per-chunk histograms, the row permutation). Like
// frontierGrain it never depends on the worker count.
const sealGrain = 1 << 14

// CanonicalOrder sorts a duplicate-free global list indexed by id
// into ascending-global order: it returns the sorted globals and the
// permutation order (new id -> old id), so sorted[i] == globals[order[i]].
// The input is not modified. Every canonical form in the pipeline — sealed
// subspaces, BuildFromContext results, the sorted fault ball — goes
// through this one sort.
//
// It is a least-significant-digit radix sort on g - min(g), one byte per
// pass and only as many passes as the span needs. Each pass runs on
// workers (0 means runtime.NumCPU()) over fixed sealGrain chunks: every
// chunk histograms its bytes, a prefix sum in (byte, chunk) order gives
// each chunk its run of every bucket, and every chunk scatters its
// (global, id) pairs stably into its runs, ping-ponging between the
// outputs and one scratch pair so that the last scatter lands in the
// outputs. The globals are distinct, so the order is unique: exactly the
// one any comparison sort produces, at every worker count.
func CanonicalOrder(globals []int64, workers int) (sorted []int64, order []int32) {
	n := len(globals)
	sorted, order = make([]int64, n), make([]int32, n)
	if n == 0 {
		return sorted, order
	}
	lo, hi := globals[0], globals[0]
	for _, g := range globals[1:] {
		lo, hi = min(lo, g), max(hi, g)
	}
	// Keys are g - lo in uint64 arithmetic, exact for any int64 span.
	span := uint64(hi) - uint64(lo)
	width := uint(0) // bytes the span needs
	for width < 8 && span>>(8*width) != 0 {
		width++
	}
	if width == 0 { // n == 1
		sorted[0] = globals[0]
		return sorted, order
	}
	hist := make([][256]int32, (n+sealGrain-1)/sealGrain)
	bufG := [2][]int64{sorted, make([]int64, n)}
	bufO := [2][]int32{order, make([]int32, n)}
	srcG, srcO := globals, []int32(nil) // nil: ids are input positions
	dst := (width - 1) % 2              // the last scatter writes buffer 0
	for b := uint(0); b < width; b++ {
		shift := 8 * b
		_ = ForRanges(n, workers, sealGrain, func(clo, chi int) error {
			h := &hist[clo/sealGrain]
			*h = [256]int32{}
			for _, g := range srcG[clo:chi] {
				h[(uint64(g)-uint64(lo))>>shift&0xff]++
			}
			return nil
		})
		at := int32(0)
		for d := range 256 {
			for c := range hist {
				k := hist[c][d]
				hist[c][d] = at
				at += k
			}
		}
		dstG, dstO := bufG[dst], bufO[dst]
		_ = ForRanges(n, workers, sealGrain, func(clo, chi int) error {
			h := &hist[clo/sealGrain]
			for i := clo; i < chi; i++ {
				g, id := srcG[i], int32(i)
				if srcO != nil {
					id = srcO[i]
				}
				d := (uint64(g) - uint64(lo)) >> shift & 0xff
				dstG[h[d]], dstO[h[d]] = g, id
				h[d]++
			}
			return nil
		})
		srcG, srcO = dstG, dstO
		dst ^= 1
	}
	return sorted, order
}

// permuteCSR writes the rows of the shells permuted by order (new id ->
// old id) into fresh canonical storage, remapping row targets through the
// inverse permutation and codes to the sorted union of the shells'
// palettes. Because row targets were merged in ascending *global* order,
// every remapped row stays sorted without re-sorting. It runs on workers
// over fixed sealGrain ranges of old ids, each read sequentially from its
// shells: a pass that scatters the degrees to their new rows, a prefix sum
// over the degrees, and a pass that copies each row to its offset.
func permuteCSR(order []int32, shells []shellRows, edges int64, workers int) ([]int64, []int32, Probs, []bool) {
	n := len(order)
	perm := make([]int32, n) // old id -> new id
	_ = ForRanges(n, workers, sealGrain, func(lo, hi int) error {
		for newID := lo; newID < hi; newID++ {
			perm[order[newID]] = int32(newID)
		}
		return nil
	})
	frags := make([]Probs, len(shells))
	for i := range shells {
		frags[i] = shells[i].prob
	}
	pal, coded := unionPalette(frags)
	maps := make([][maxPalette]uint8, len(shells))
	for i := range shells {
		maps[i] = remapTo(pal, shells[i].prob)
	}
	off := make([]int64, n+1)
	succ := make([]int32, edges)
	prob := newProbs(pal, coded, edges)
	legit := make([]bool, n)
	_ = ForRanges(n, workers, sealGrain, func(lo, hi int) error {
		for s, r := shellOf(shells, int32(lo)); lo < hi; lo, r = lo+1, r+1 {
			for r == len(shells[s].legit) {
				s, r = s+1, 0
			}
			sh := &shells[s]
			off[perm[lo]+1] = sh.off[r+1] - sh.off[r]
		}
		return nil
	})
	for i := range n {
		off[i+1] += off[i]
	}
	_ = ForRanges(n, workers, sealGrain, func(lo, hi int) error {
		for s, r := shellOf(shells, int32(lo)); lo < hi; lo, r = lo+1, r+1 {
			for r == len(shells[s].legit) {
				s, r = s+1, 0
			}
			sh, newID := &shells[s], perm[lo]
			from, to, at := sh.off[r], sh.off[r+1], off[newID]
			for j, t := range sh.succ[from:to] {
				succ[at+int64(j)] = perm[t]
			}
			prob.copyRows(at, sh.prob, from, to, &maps[s])
			legit[newID] = sh.legit[r]
		}
		return nil
	})
	return off, succ, prob, legit
}
