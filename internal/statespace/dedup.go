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
// The hash table is one power-of-two []int32 of slots. A slot holds -1
// when empty and otherwise a local id, i.e. an index into globals, which
// stores the key itself; probing is linear from a Fibonacci hash of the
// global. The table doubles when it would become more than half full,
// rebuilding its slots from globals — no tombstones, no per-entry
// allocation, no Go map.
//
// Concurrency contract: Lookup is safe from any number of goroutines while
// no Add is running (Lookup only reads slots and globals; the frontier
// engine alternates a parallel read-only expansion phase with a serial
// insertion phase). Add itself must be serialized by the caller — id
// assignment order is what makes frontier exploration deterministic.

// DenseDedupLimit is the index-range size up to which Dedup uses the dense
// visited array (4 bytes per configuration of the range) instead of the
// hash table. The dense array wins below it: one probe, no hashing.
const DenseDedupLimit = 1 << 22

// minDedupSlots is the initial slot count of a hash table.
const minDedupSlots = 1 << 10

// Dedup maps global configuration indexes to the dense local ids
// [0, Len()), in insertion order. The zero value is not usable; call
// NewDedup (growable) or NewSortedDedup (sealed, binary-searched).
type Dedup struct {
	dense   []int32 // global -> local id, -1 when absent (small ranges)
	slots   []int32 // open-addressing table: -1 empty, else a local id (large ranges)
	shift   uint    // 64 - log2(len(slots)): the hash keeps the top bits
	sorted  bool    // sealed: globals strictly ascending, Lookup binary-searches
	globals []int64 // local id -> global index, insertion order
}

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
	d.rehash(minDedupSlots)
	return d
}

// home returns g's first probe slot by Fibonacci hashing (the indexes
// themselves are highly structured — mixed-radix neighbors differ by one
// weight — so the raw low bits would collide pathologically).
func (d *Dedup) home(g int64) int {
	return int((uint64(g) * 0x9e3779b97f4a7c15) >> d.shift)
}

// rehash rebuilds the slots at the given power-of-two size from globals,
// assigning each global its id in globals.
func (d *Dedup) rehash(size int) {
	if cap(d.slots) >= size {
		d.slots = d.slots[:size]
	} else {
		d.slots = make([]int32, size)
	}
	for i := range d.slots {
		d.slots[i] = -1
	}
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for id, g := range d.globals {
		i := d.home(g)
		for d.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = int32(id)
	}
}

// probe returns the slot holding g, or the empty slot where g would go.
func (d *Dedup) probe(g int64) int {
	mask := len(d.slots) - 1
	i := d.home(g)
	for {
		id := d.slots[i]
		if id < 0 || d.globals[id] == g {
			return i
		}
		i = (i + 1) & mask
	}
}

// Lookup returns the local id of g, or -1 when g has not been added.
func (d *Dedup) Lookup(g int64) int32 {
	if d.sorted {
		lo, hi := 0, len(d.globals)
		for lo < hi {
			mid := (lo + hi) / 2
			if d.globals[mid] < g {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(d.globals) && d.globals[lo] == g {
			return int32(lo)
		}
		return -1
	}
	if d.dense != nil {
		return d.dense[g]
	}
	return d.slots[d.probe(g)]
}

// Add inserts g if absent and returns its local id (existing or newly
// assigned). Ids are assigned in insertion order. Add must not be called
// on a sealed (NewSortedDedup) table.
func (d *Dedup) Add(g int64) int32 {
	if d.sorted {
		panic("statespace: Add on a sealed dedup table")
	}
	if d.dense != nil {
		if id := d.dense[g]; id >= 0 {
			return id
		}
		id := int32(len(d.globals))
		d.dense[g] = id
		d.globals = append(d.globals, g)
		return id
	}
	i := d.probe(g)
	if id := d.slots[i]; id >= 0 {
		return id
	}
	id := int32(len(d.globals))
	d.globals = append(d.globals, g)
	if 2*len(d.globals) > len(d.slots) {
		d.rehash(2 * len(d.slots)) // places g with the rest
	} else {
		d.slots[i] = id
	}
	return id
}

// grow makes room for n more Adds without reallocating globals, growing
// it at most once and geometrically.
func (d *Dedup) grow(n int) {
	if n > 0 {
		d.globals = slices.Grow(d.globals, n)
	}
}

// NewDedupFromGlobals rebuilds a growable table over [0, total) whose id
// order is exactly the given global list (id i -> globals[i]). The
// resumable frontier Builder uses it to re-adopt a sealed subspace it will
// keep growing; the list must be duplicate-free.
func NewDedupFromGlobals(total int64, globals []int64) *Dedup {
	d := NewDedup(total)
	for _, g := range globals {
		d.Add(g)
	}
	return d
}

// NewSortedDedup returns a sealed table whose id order is the given
// strictly-ascending global list: Lookup binary-searches the list itself —
// no dense array over the range, no hash table, no per-entry insertion
// cost. Canonical subspaces (sealed snapshots, deserialized caches) are
// exactly this shape: their ids are ascending-global by construction and
// their state set never grows. The list is adopted, not copied; Add and
// Renumber panic.
func NewSortedDedup(globals []int64) *Dedup {
	return &Dedup{sorted: true, globals: globals}
}

// Len returns the number of distinct globals added.
func (d *Dedup) Len() int { return len(d.globals) }

// Globals returns the added global indexes in id order. The slice aliases
// the table; callers must not modify it.
func (d *Dedup) Globals() []int64 { return d.globals }

// Renumber reassigns local ids so that id order equals the given
// permutation: order[newID] is the old id whose global now gets newID.
// Used by the frontier engine to canonicalize discovery-order ids into
// ascending-global order after exploration.
func (d *Dedup) Renumber(order []int32) {
	if d.sorted {
		panic("statespace: Renumber on a sealed dedup table")
	}
	remapped := make([]int64, len(order))
	for newID, old := range order {
		g := d.globals[old]
		remapped[newID] = g
		if d.dense != nil {
			d.dense[g] = int32(newID)
		}
	}
	d.globals = remapped
	if d.dense == nil {
		d.rehash(len(d.slots))
	}
}
