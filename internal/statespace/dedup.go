package statespace

import (
	"math/bits"
	"slices"
)

// Dedup assigns dense local ids to sparse global configuration indexes —
// the visited set of every frontier exploration (BuildFromContext's reachable
// subspaces, the checker's fault-ball enumeration). Small index ranges get
// a dense int32 array (one probe, no hashing); large ranges get a flat
// open-addressing hash table whose memory is proportional to the number of
// *discovered* states, not the range — which is the whole point of
// frontier exploration, whose subspaces routinely live inside index ranges
// far too large to allocate a visited array for.
//
// The hash table is split into dedupShards shards by the top bits of a
// Fibonacci hash of the global. A shard keeps its globals as a list of
// entries (a global and its local id) and a power-of-two []int32 of slots
// indexing that list, -1 when empty; probing is linear from the next hash
// bits. Everything a probe reads lives in the shard, which is what lets
// AddChunks insert shard by shard with cache-resident probes. A shard
// doubles its slots when they would become more than half full,
// rebuilding them from its entries — no tombstones, no per-entry
// allocation, no Go map. The shard count is fixed, never derived from a
// worker count.
//
// Concurrency contract: Globals may be read from any number of goroutines
// while no insertion runs (the frontier engine alternates a parallel
// read-only expansion phase with an insertion phase). AddChunks is the
// parallel insertion: on a hash table it runs its own workers, one per
// shard at a time. It must not overlap a read or another insert.
// Add inserts one global and must be serialized by the caller.

// DenseDedupLimit is the index-range size up to which Dedup uses the dense
// visited array (4 bytes per configuration of the range) instead of the
// hash table. The dense array wins below it: one probe, no hashing.
const DenseDedupLimit = 1 << 22

// dedupShardBits fixes the shard count of a hash table: the top
// dedupShardBits bits of a global's hash pick its shard.
const (
	dedupShardBits = 6
	dedupShards    = 1 << dedupShardBits
)

// minDedupSlots is the initial slot count of a hash table, over all its
// shards.
const minDedupSlots = 1 << 10

// Dedup maps global configuration indexes to the dense local ids
// [0, Len()). The zero value is not usable; call NewDedup.
type Dedup struct {
	dense   []int32      // global -> local id, -1 when absent (small ranges)
	shards  []dedupShard // hash table (large ranges)
	globals []int64      // local id -> global index

	routes []dedupRoute // AddChunks scratch, one per chunk of a round
}

// dedupShard is one shard of a hash table. During an AddChunks round a
// global the table has not seen is pending: it is the entry first+j, whose
// id stays -1 until the round assigns it. count[c] is the number of the
// round's pending globals first occurring in chunk c; once the round
// places ids it is the j of the first of them.
type dedupShard struct {
	ents  []dedupEnt
	slots []int32 // index into ents, -1 when empty
	shift uint    // 64 - log2(len(slots)): the home slot keeps the top bits
	first int     // the round's first pending entry
	count []int32
}

// dedupEnt is one global of a shard with its local id.
type dedupEnt struct {
	g  int64
	id int32
}

// dedupRoute is one AddChunks chunk's unresolved positions grouped by
// shard: shard s owns keys[k] (the global at position pos[k]) for k in
// [start[s], start[s+1]), in ascending position, and stores the outcome
// of inserting it in res[k]: an id, a pending value -2-j, or -1 where
// the global first occurs. Copying the keys lets every shard read its
// part of a chunk sequentially.
type dedupRoute struct {
	start [dedupShards + 1]int32
	keys  []int64
	pos   []int32
	res   []int32
}

// hashGlobal is the Fibonacci hash of g (the indexes themselves are highly
// structured — mixed-radix neighbors differ by one weight — so the raw low
// bits would collide pathologically). Its top bits pick the shard and the
// bits below them the home slot.
func hashGlobal(g int64) uint64 { return uint64(g) * 0x9e3779b97f4a7c15 }

// NewDedup returns an empty table for global indexes in [0, total).
func NewDedup(total int64) *Dedup {
	d := &Dedup{}
	if total <= DenseDedupLimit {
		d.dense = make([]int32, total)
		for i := range d.dense {
			d.dense[i] = -1
		}
		return d
	}
	d.shards = make([]dedupShard, dedupShards)
	for s := range d.shards {
		d.shards[s].rehash(minDedupSlots / dedupShards)
	}
	return d
}

// shardOf returns the shard of a global with hash h.
func (d *Dedup) shardOf(h uint64) *dedupShard { return &d.shards[h>>(64-dedupShardBits)] }

// shardIndex returns the shard of g.
func shardIndex(g int64) uint64 { return hashGlobal(g) >> (64 - dedupShardBits) }

// rehash rebuilds the slots at the given power-of-two size from the
// entries.
func (sh *dedupShard) rehash(size int) {
	sh.slots = make([]int32, size)
	for i := range sh.slots {
		sh.slots[i] = -1
	}
	sh.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for e, ent := range sh.ents {
		i := int(hashGlobal(ent.g) << dedupShardBits >> sh.shift)
		for sh.slots[i] != -1 {
			i = (i + 1) & mask
		}
		sh.slots[i] = int32(e)
	}
}

// probe returns the index of the slot holding g (hash h), or of the
// empty slot where g would go.
func (sh *dedupShard) probe(h uint64, g int64) int {
	mask := len(sh.slots) - 1
	i := int(h << dedupShardBits >> sh.shift)
	for {
		if e := sh.slots[i]; e == -1 || sh.ents[e].g == g {
			return i
		}
		i = (i + 1) & mask
	}
}

// insert adds g, absent from the shard, as entry len(ents) with the given
// id into slot i, growing the slots when they get half full.
func (sh *dedupShard) insert(i int, g int64, id int32) {
	sh.slots[i] = int32(len(sh.ents))
	sh.ents = append(sh.ents, dedupEnt{g, id})
	if 2*len(sh.ents) > len(sh.slots) {
		sh.rehash(2 * len(sh.slots))
	}
}

// Add inserts g if absent and returns its local id (existing or newly
// assigned as the next id, Len()).
func (d *Dedup) Add(g int64) int32 {
	id := int32(len(d.globals))
	if d.dense != nil {
		if v := d.dense[g]; v >= 0 {
			return v
		}
		d.dense[g] = id
	} else {
		h := hashGlobal(g)
		sh := d.shardOf(h)
		i := sh.probe(h, g)
		if e := sh.slots[i]; e >= 0 {
			return sh.ents[e].id
		}
		sh.insert(i, g, id)
	}
	d.globals = append(d.globals, g)
	return id
}

// addPending returns g's id, or -1 when g was absent and is now pending,
// first occurring in chunk c, or the pending value -2-j of a global that
// first occurred earlier in the round. Only the goroutine owning sh may
// call it.
func (d *Dedup) addPending(sh *dedupShard, h uint64, g int64, c int) int32 {
	i := sh.probe(h, g)
	if e := sh.slots[i]; e >= 0 {
		if id := sh.ents[e].id; id >= 0 {
			return id
		}
		return int32(-2 - (int(e) - sh.first))
	}
	sh.insert(i, g, -1)
	sh.count[c]++
	return -1
}

// addBatch bounds the positions of one AddChunks round, and with them
// the routing scratch (16 bytes a position), while leaving each shard more
// probes per round than its table has cache lines.
const addBatch = 1 << 20

// AddChunks is the parallel batch insert of the discovery loops: it has
// exactly the effect of calling Add on to[c][i] for every chunk c and
// position i with ids[c][i] < 0, in (chunk, position) order, and storing
// the returned id in ids[c][i]. New globals thus get the ids [Len(),
// Len()+added) in the order of their first occurrence, whatever workers
// is (0 means runtime.NumCPU()).
//
// A dense table inserts serially: its probe is one array read, cheaper
// than routing a position to a shard. A hash table takes the chunks in
// rounds of about addBatch positions (a larger chunk is a round of its
// own), each in ForRanges phases: every chunk groups its
// unresolved positions by shard; every shard inserts its positions in
// (chunk, position) order, holding the globals it has not seen as pending
// and counting, per chunk, those that first occur there; a prefix sum of
// the counts gives every chunk the first id of its first occurrences,
// which it assigns in position order and reports to their shards; last,
// every chunk resolves its repeats.
//
// When a round (a chunk, on a dense table) brings the table past limit
// globals, AddChunks stops there and returns false with the count of new
// globals so far; the table is then unusable.
func (d *Dedup) AddChunks(to [][]int64, ids [][]int32, limit, workers int) (added int, ok bool) {
	if d.dense != nil {
		before := len(d.globals)
		for c := range to {
			for i, g := range to[c] {
				if ids[c][i] < 0 {
					ids[c][i] = d.Add(g)
				}
			}
			if len(d.globals) > limit {
				return len(d.globals) - before, false
			}
		}
		return len(d.globals) - before, true
	}
	defer func() { d.routes = nil }() // between inserts the scratch would only raise the heap's high-water mark
	for lo, hi := 0, 0; lo < len(to); lo = hi {
		for m := 0; hi < len(to) && (hi == lo || m+len(to[hi]) <= addBatch); hi++ {
			m += len(to[hi])
		}
		n := d.insertRound(to[lo:hi], ids[lo:hi], workers)
		if added += n; len(d.globals)+n > limit {
			return added, false
		}
		d.assignRound(to[lo:hi], ids[lo:hi], workers)
	}
	return added, true
}

// insertRound groups a round's positions by shard and inserts them,
// returning the number of globals it made pending.
func (d *Dedup) insertRound(to [][]int64, ids [][]int32, workers int) (pending int) {
	d.routes = slices.Grow(d.routes[:0], len(to))[:len(to)]
	_ = ForRanges(len(to), workers, 1, func(c, _ int) error {
		r := &d.routes[c]
		r.start = [dedupShards + 1]int32{}
		for i, g := range to[c] {
			if ids[c][i] < 0 {
				r.start[shardIndex(g)+1]++
			}
		}
		for s := 1; s <= dedupShards; s++ {
			r.start[s] += r.start[s-1]
		}
		m := int(r.start[dedupShards])
		r.keys, r.pos, r.res = slices.Grow(r.keys[:0], m)[:m], slices.Grow(r.pos[:0], m)[:m], slices.Grow(r.res[:0], m)[:m]
		at := r.start // per-shard write cursors
		for i, g := range to[c] {
			if s := shardIndex(g); ids[c][i] < 0 {
				r.keys[at[s]], r.pos[at[s]] = g, int32(i)
				at[s]++
			}
		}
		return nil
	})
	for s := range d.shards {
		d.shards[s].first = len(d.shards[s].ents)
	}
	_ = ForRanges(dedupShards, workers, 1, func(s, _ int) error {
		sh := &d.shards[s]
		sh.count = slices.Grow(sh.count[:0], len(to))[:len(to)]
		clear(sh.count)
		for c := range to {
			r := &d.routes[c]
			for k := r.start[s]; k < r.start[s+1]; k++ {
				r.res[k] = d.addPending(sh, hashGlobal(r.keys[k]), r.keys[k], c)
			}
		}
		return nil
	})
	for s := range d.shards {
		pending += len(d.shards[s].ents) - d.shards[s].first
	}
	return pending
}

// assignRound numbers a round's pending globals and resolves its
// positions' ids.
func (d *Dedup) assignRound(to [][]int64, ids [][]int32, workers int) {
	base := make([]int, len(to)+1) // base[c]: the first new id of chunk c
	base[0] = len(d.globals)
	for c := range to {
		base[c+1] = base[c]
		for s := range d.shards {
			base[c+1] += int(d.shards[s].count[c])
		}
	}
	d.globals = slices.Grow(d.globals, base[len(to)]-base[0])[:base[len(to)]]
	for s := range d.shards { // count[c] becomes the first pending index of chunk c
		sh, j := &d.shards[s], int32(0)
		for c, k := range sh.count {
			sh.count[c], j = j, j+k
		}
	}
	_ = ForRanges(len(to), workers, 1, func(c, _ int) error {
		r, ic, next := &d.routes[c], ids[c], int32(base[c])
		for k, i := range r.pos {
			ic[i] = r.res[k]
		}
		var nth [dedupShards]int // the chunk's first occurrences numbered per shard
		for i := 0; next < int32(base[c+1]); i++ {
			if ic[i] == -1 { // a first occurrence: its shard's next pending entry
				g := to[c][i]
				s := shardIndex(g)
				sh := &d.shards[s]
				sh.ents[sh.first+int(sh.count[c])+nth[s]].id = next
				ic[i], d.globals[next] = next, g
				nth[s]++
				next++
			}
		}
		return nil
	})
	_ = ForRanges(len(to), workers, 1, func(c, _ int) error {
		r := &d.routes[c]
		for s := range d.shards {
			for k := r.start[s]; k < r.start[s+1]; k++ {
				if v := r.res[k]; v < -1 { // a repeat of a first occurrence
					ids[c][r.pos[k]] = d.shards[s].ents[d.shards[s].first-2-int(v)].id
				}
			}
		}
		return nil
	})
}

// Len returns the number of distinct globals added.
func (d *Dedup) Len() int { return len(d.globals) }

// Globals returns the added global indexes in id order. The slice aliases
// the table; callers must not modify it.
func (d *Dedup) Globals() []int64 { return d.globals }
