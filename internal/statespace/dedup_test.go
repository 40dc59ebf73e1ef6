package statespace

import (
	"math/rand"
	"sync"
	"testing"
)

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

func TestDedupRenumber(t *testing.T) {
	for name, d := range dedupTables() {
		for _, g := range []int64{512, 0, 33} {
			d.Add(g)
		}
		// Renumber into ascending-global order: 0, 33, 512.
		d.Renumber([]int32{1, 2, 0})
		want := []int64{0, 33, 512}
		for i, g := range want {
			if d.Globals()[i] != g {
				t.Fatalf("%s: Globals()[%d] = %d, want %d", name, i, d.Globals()[i], g)
			}
			if d.Lookup(g) != int32(i) {
				t.Fatalf("%s: Lookup(%d) = %d, want %d", name, g, d.Lookup(g), i)
			}
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
	if len(d.slots) < 2*d.Len() {
		t.Fatalf("%d slots for %d entries: table more than half full", len(d.slots), d.Len())
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
	// A rebuilt table over the same list answers identically.
	r := NewDedupFromGlobals(DenseDedupLimit+1, d.Globals())
	for g, want := range model {
		if got := r.Lookup(g); got != want {
			t.Fatalf("NewDedupFromGlobals: Lookup(%d) = %d, want %d", g, got, want)
		}
	}
}

// TestDedupRenumberGrown renumbers a hashed table that has already doubled
// several times into ascending-global order.
func TestDedupRenumberGrown(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDedup(DenseDedupLimit + 1)
	for _, g := range stridedGlobals(rng, 8*minDedupSlots) {
		d.Add(g)
	}
	sorted, order := CanonicalOrder(d.Globals())
	d.Renumber(order)
	for i, g := range sorted {
		if d.Globals()[i] != g {
			t.Fatalf("Globals()[%d] = %d, want %d", i, d.Globals()[i], g)
		}
		if got := d.Lookup(g); got != int32(i) {
			t.Fatalf("Lookup(%d) = %d after Renumber, want %d", g, got, i)
		}
	}
	// The renumbered table keeps growing correctly.
	next := int64(1) << 40
	if id := d.Add(next); id != int32(len(sorted)) || d.Lookup(next) != id {
		t.Fatalf("Add after Renumber = %d (Lookup %d), want %d", id, d.Lookup(next), len(sorted))
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
