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
// rows with global targets, resolving already-known targets against the
// read-only dedup table) with a serial stitch phase that assigns local ids
// to newly discovered states in chunk-and-row order. After the BFS
// terminates, local ids are canonicalized to ascending-global order, so
// the Space — rows, probabilities, legitimacy, and every analysis run
// over it — is a pure function of (algorithm, policy, seed set),
// independent of worker count and discovery schedule. Because BFS closes
// the successor relation before the space is sealed, downstream
// condensations (Tarjan over the transient subgraph, the hitting-time
// block solver) see exactly the closed reachable edge set.
package statespace

import (
	"context"
	"fmt"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// frontierGrain is the chunk size workers claim from the current BFS
// level. It is a constant — never derived from the worker count — so the
// serial stitch order, and with it every assigned local id, is identical
// for every pool size.
const frontierGrain = 1 << 10

// frontierChunk is one chunk's exploration output: per-state degrees and
// legitimacy, and the concatenated successor rows with global targets.
// local[i] caches the read-only dedup resolution of to[i] from the
// parallel phase (-1 when the target was not yet discovered at phase
// start; the serial stitch resolves or assigns those).
type frontierChunk struct {
	deg   []int32
	legit []bool
	to    []int64
	local []int32
	prob  []float64
	fresh int // targets with local[i] < 0: an upper bound on new ids
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
// keep a Builder alive and extend it instead of rebuilding per wave.
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
	return b.seal(true), nil
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

// CanonicalOrder sorts a duplicate-free global list indexed by id into
// ascending-global order: it returns the sorted globals and the permutation
// order (new id -> old id), so sorted[i] == globals[order[i]]. The input is
// not modified. Every canonical form in the pipeline — sealed subspaces,
// canonicalized BuildFromContext results, the sorted fault ball — goes
// through this one sort.
//
// It is a least-significant-digit radix sort on g - min(g), one byte per
// pass and only as many passes as the span needs: one counting scan
// histograms every byte, then each byte costs one stable scatter of
// (global, id) pairs, ping-ponging between the outputs and one scratch
// pair so that the last scatter lands in the outputs. The globals are
// distinct, so the order is unique: exactly the one any comparison sort
// produces.
func CanonicalOrder(globals []int64) (sorted []int64, order []int32) {
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
	var count [8][256]int32
	for _, g := range globals {
		key := uint64(g) - uint64(lo)
		for b := uint(0); b < width; b++ {
			count[b][key>>(8*b)&0xff]++
		}
	}
	bufG := [2][]int64{sorted, make([]int64, n)}
	bufO := [2][]int32{order, make([]int32, n)}
	srcG, srcO := globals, []int32(nil) // nil: ids are input positions
	dst := (width - 1) % 2              // the last scatter writes buffer 0
	for b := uint(0); b < width; b++ {
		shift, c := 8*b, &count[b]
		at := int32(0)
		for d, k := range c {
			c[d] = at
			at += k
		}
		dstG, dstO := bufG[dst], bufO[dst]
		for i, g := range srcG {
			id := int32(i)
			if srcO != nil {
				id = srcO[i]
			}
			d := (uint64(g) - uint64(lo)) >> shift & 0xff
			dstG[c[d]], dstO[c[d]] = g, id
			c[d]++
		}
		srcG, srcO = dstG, dstO
		dst ^= 1
	}
	return sorted, order
}

// permuteCSR writes the CSR triple and legitimacy vector permuted by order
// (new id -> old id) into fresh arrays, remapping row targets through the
// inverse permutation. Because row targets were merged in ascending
// *global* order, every remapped row stays sorted without re-sorting.
func permuteCSR(order []int32, off []int64, succ []int32, prob []float64, legit []bool) ([]int64, []int32, []float64, []bool) {
	n := len(order)
	perm := make([]int32, n) // old id -> new id
	for newID, old := range order {
		perm[old] = int32(newID)
	}
	newOff := make([]int64, n+1)
	newSucc := make([]int32, len(succ))
	newProb := make([]float64, len(prob))
	newLegit := make([]bool, n)
	at := int64(0)
	for newID, old := range order {
		newOff[newID] = at
		row := succ[off[old]:off[old+1]]
		prow := prob[off[old]:off[old+1]]
		for j, t := range row {
			newSucc[at+int64(j)] = perm[t]
			newProb[at+int64(j)] = prow[j]
		}
		at += int64(len(row))
		newLegit[newID] = legit[old]
	}
	newOff[n] = at
	return newOff, newSucc, newProb, newLegit
}

// canonicalize renumbers local ids into ascending-global order and remaps
// the CSR accordingly. Discovery order depends on the seed ordering and
// BFS schedule; ascending-global order is a canonical function of the seed
// *set* and aligns subspace iteration order with full-space iteration
// order (so analyses pick identical witnesses). The arrays and the
// table's globals are always rewritten into fresh, exactly sized storage
// (even when discovery order happens to be canonical), so a space adopted
// from a Builder never pins the builder's per-shell growth headroom.
func (sp *Space) canonicalize() {
	_, order := CanonicalOrder(sp.table.Globals())
	sp.off, sp.succ, sp.prob, sp.Legit = permuteCSR(order, sp.off, sp.succ, sp.prob, sp.Legit)
	sp.table.Renumber(order)
}
