package statespace

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Lookup returns the local id of g, or -1 when g has not been added. Like
// Globals it only reads the table, so any number of goroutines may call it
// while no insertion runs.
func (d *Dedup) Lookup(g int64) int32 {
	if d.dense != nil {
		return d.dense[g]
	}
	h := hashGlobal(g)
	sh := d.shardOf(h)
	if e := sh.slots[sh.probe(h, g)]; e >= 0 {
		return sh.ents[e].id
	}
	return -1
}

// dedupTables returns both implementations: the dense visited array and
// the hash table (forced by a range just past the dense limit).
func dedupTables() map[string]*Dedup {
	return map[string]*Dedup{
		"dense":  NewDedup(1 << 15),
		"hashed": NewDedup(DenseDedupLimit + 1),
	}
}

func TestDedupAddLookup(t *testing.T) {
	for name, d := range dedupTables() {
		globals := []int64{512, 0, 33, 512, 1023, 33, 7}
		wantIDs := []int32{0, 1, 2, 0, 3, 2, 4}
		for i, g := range globals {
			if id := d.Add(g); id != wantIDs[i] {
				t.Fatalf("%s: Add(%d) = %d, want %d", name, g, id, wantIDs[i])
			}
		}
		if d.Len() != 5 {
			t.Fatalf("%s: Len = %d, want 5", name, d.Len())
		}
		if got := d.Globals(); got[0] != 512 || got[4] != 7 {
			t.Fatalf("%s: globals out of insertion order: %v", name, got)
		}
		if d.Lookup(99) != -1 {
			t.Fatalf("%s: Lookup of absent global succeeded", name)
		}
		if d.Lookup(1023) != 3 {
			t.Fatalf("%s: Lookup(1023) = %d, want 3", name, d.Lookup(1023))
		}
	}
}

// stridedGlobals returns n distinct globals that are multiples of a large
// mixed-radix weight plus a small offset — the shape of single-process
// mutations of one configuration, whose low bits collide under a bad hash.
func stridedGlobals(rng *rand.Rand, n int) []int64 {
	const weight = 1 << 20 // the weight of a high process in a radix-2^k encoding
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		g := int64(rng.Intn(1<<16))*weight + int64(rng.Intn(4))
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// TestDedupHashedMatchesMap is a randomized model test of the hash table
// against a Go map, across several doublings, including re-adds of known
// globals and lookups of absent ones.
func TestDedupHashedMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDedup(DenseDedupLimit + 1)
	model := map[int64]int32{}
	keys := stridedGlobals(rng, 20*minDedupSlots) // grows the table 5 times
	for i, g := range keys {
		if id := d.Add(g); id != int32(i) {
			t.Fatalf("Add(%d) = %d, want new id %d", g, id, i)
		}
		model[g] = int32(i)
		old := keys[rng.Intn(i+1)] // re-adding a known global is a no-op
		if id := d.Add(old); id != model[old] {
			t.Fatalf("re-Add(%d) = %d, want %d", old, id, model[old])
		}
	}
	if d.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(model))
	}
	used := 0
	for s, sh := range d.shards {
		if 2*len(sh.ents) > len(sh.slots) {
			t.Fatalf("shard %d: %d slots for %d entries: more than half full", s, len(sh.slots), len(sh.ents))
		}
		used += len(sh.ents)
	}
	if used != d.Len() {
		t.Fatalf("shards hold %d entries, want %d", used, d.Len())
	}
	for g, want := range model {
		if got := d.Lookup(g); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", g, got, want)
		}
	}
	for _, g := range stridedGlobals(rng, 1000) {
		if _, ok := model[g]; !ok && d.Lookup(g) != -1 {
			t.Fatalf("Lookup(%d) of an absent global = %d", g, d.Lookup(g))
		}
	}
	// A table rebuilt from the list in one batch, as a builder admits a
	// seed wave, answers identically.
	r := NewDedup(DenseDedupLimit + 1)
	to, ids := addChunksBatches(d.Globals(), len(keys))
	r.AddChunks(to, ids, math.MaxInt, 3)
	for g, want := range model {
		if got := r.Lookup(g); got != want {
			t.Fatalf("rebuilt: Lookup(%d) = %d, want %d", g, got, want)
		}
	}
}

// TestSealedLocalIndexOverGrownTable seals a hashed table that has doubled
// several times the way Builder.Seal does — CanonicalOrder over its
// globals, kept as the space's sorted globals — and checks that
// LocalIndex maps every global to its ascending-global rank.
func TestSealedLocalIndexOverGrownTable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDedup(DenseDedupLimit + 1)
	for _, g := range stridedGlobals(rng, 8*minDedupSlots) {
		d.Add(g)
	}
	sorted, order := CanonicalOrder(d.Globals(), 3)
	sealed := &Space{States: len(sorted), globals: sorted}
	for i, g := range sorted {
		if d.Globals()[order[i]] != g {
			t.Fatalf("order[%d] = %d does not hold global %d", i, order[i], g)
		}
		if got := sealed.LocalIndex(g); got != int32(i) {
			t.Fatalf("sealed LocalIndex(%d) = %d, want %d", g, got, i)
		}
	}
	absent := sorted[len(sorted)/2] + 4 // a strided global's low part is below 4
	if sealed.LocalIndex(-5) != -1 || sealed.LocalIndex(1<<40) != -1 || sealed.LocalIndex(absent) != -1 {
		t.Fatal("sealed LocalIndex of an absent global succeeded")
	}
}

// addChunksBatches splits keys into chunk batches of the given size, all
// positions unresolved.
func addChunksBatches(keys []int64, grain int) ([][]int64, [][]int32) {
	var to [][]int64
	var ids [][]int32
	for lo := 0; lo < len(keys); lo += grain {
		hi := min(lo+grain, len(keys))
		id := make([]int32, hi-lo)
		for i := range id {
			id[i] = -1
		}
		to, ids = append(to, keys[lo:hi]), append(ids, id)
	}
	return to, ids
}

// TestDedupAddChunks pins the parallel batch insert to its serial
// definition on both table kinds: batches with repeats within and across
// chunks, globals already in the table and positions the caller resolved
// itself must leave every position with exactly the id, and the table
// with exactly the globals, that Add over the unresolved positions in
// (chunk, position) order gives — at every worker count.
func TestDedupAddChunks(t *testing.T) {
	for name, total := range map[string]int64{"dense": 1 << 16, "hashed": DenseDedupLimit + 1} {
		for _, workers := range []int{1, 2, 5, 16} {
			rng := rand.New(rand.NewSource(3))
			d, serial := NewDedup(total), NewDedup(total)
			for _, g := range []int64{40, 7, 9000} {
				d.Add(g)
				serial.Add(g)
			}
			for round := 0; round < 4; round++ {
				keys := make([]int64, 3000)
				for i := range keys {
					keys[i] = rng.Int63n(1 << 14)
				}
				to, ids := addChunksBatches(keys, 256)
				ids[1][3] = d.Lookup(to[1][3]) // a caller-resolved position
				want := make([][]int32, len(ids))
				for c := range to {
					want[c] = slices.Clone(ids[c])
					for i, g := range to[c] {
						if want[c][i] < 0 {
							want[c][i] = serial.Add(g)
						}
					}
				}
				before := d.Len()
				added, ok := d.AddChunks(to, ids, 1<<20, workers)
				if !ok || added != serial.Len()-before {
					t.Fatalf("%s w=%d: AddChunks = (%d, %v), want (%d, true)", name, workers, added, ok, serial.Len()-before)
				}
				for c := range ids {
					if !slices.Equal(ids[c], want[c]) {
						t.Fatalf("%s w=%d round %d: chunk %d ids differ from serial Add", name, workers, round, c)
					}
				}
				if !slices.Equal(d.Globals(), serial.Globals()) {
					t.Fatalf("%s w=%d round %d: globals differ from serial Add", name, workers, round)
				}
				for _, g := range keys {
					if d.Lookup(g) != serial.Lookup(g) {
						t.Fatalf("%s w=%d: Lookup(%d) = %d, want %d", name, workers, g, d.Lookup(g), serial.Lookup(g))
					}
				}
			}
		}
	}
}

// TestDedupAddChunksLimit pins the inclusive limit of the batch insert: a
// batch that brings the table to exactly limit globals is admitted, and
// the same batch under limit-1 is refused with the would-be count.
func TestDedupAddChunksLimit(t *testing.T) {
	for name, total := range map[string]int64{"dense": 1 << 16, "hashed": DenseDedupLimit + 1} {
		keys := []int64{5, 9, 5, 11, 9, 300, 5}
		for _, limit := range []int{4, 3} {
			d := NewDedup(total)
			to, ids := addChunksBatches(keys, 2)
			added, ok := d.AddChunks(to, ids, limit, 4)
			if added != 4 || ok != (limit == 4) {
				t.Fatalf("%s limit %d: AddChunks = (%d, %v), want (4, %v)", name, limit, added, ok, limit == 4)
			}
		}
	}
}

// TestDedupAddChunksRounds covers batches larger than one round
// (addBatch positions): the outcome is still exactly serial Add, and a
// limit exceeded by the last new global of the first round stops the
// insert there (at the end of the round, or of its last chunk on a dense
// table), reporting the first round's exact count of new globals.
func TestDedupAddChunksRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("inserts 1.5M positions per table kind")
	}
	rng := rand.New(rand.NewSource(4))
	keys := make([]int64, addBatch+addBatch/2)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 21)
	}
	for name, total := range map[string]int64{"dense": 1 << 21, "hashed": DenseDedupLimit + 1} {
		serial := NewDedup(total)
		for _, g := range keys[:addBatch] {
			serial.Add(g)
		}
		firstRound := serial.Len()
		for _, g := range keys[addBatch:] {
			serial.Add(g)
		}
		d := NewDedup(total)
		to, ids := addChunksBatches(keys, addBatch/4)
		if added, ok := d.AddChunks(to, ids, serial.Len(), 3); !ok || added != serial.Len() || !slices.Equal(d.Globals(), serial.Globals()) {
			t.Fatalf("%s: AddChunks over two rounds = (%d, %v), differs from serial Add (%d)", name, added, ok, serial.Len())
		}
		for c := range to {
			for i, g := range to[c] {
				if ids[c][i] != serial.Lookup(g) {
					t.Fatalf("%s: global %d resolved to %d, want %d", name, g, ids[c][i], serial.Lookup(g))
				}
			}
		}
		to, ids = addChunksBatches(keys, addBatch/4)
		if added, ok := NewDedup(total).AddChunks(to, ids, firstRound-1, 3); ok || added != firstRound {
			t.Fatalf("%s: AddChunks under a first-round limit = (%d, %v), want (%d, false)", name, added, ok, firstRound)
		}
	}
}

// TestDedupConcurrentLookup exercises the read-only phase contract: many
// goroutines may Lookup while no Add runs (run with -race). The hashed
// table has grown past its initial size before the readers start.
func TestDedupConcurrentLookup(t *testing.T) {
	const n = 4 * minDedupSlots
	for name, d := range dedupTables() {
		for g := int64(0); g < n; g++ {
			d.Add(g * 7)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := int64(0); g < 7*n; g++ {
					want := int32(-1)
					if g%7 == 0 {
						want = int32(g / 7)
					}
					if got := d.Lookup(g); got != want {
						t.Errorf("%s: concurrent Lookup(%d) = %d, want %d", name, g, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
