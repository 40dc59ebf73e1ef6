package statespace

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// checkCanonicalOrder asserts CanonicalOrder's contract on one
// duplicate-free list, on one worker and on three: order is a permutation
// of the ids, sorted[i] == globals[order[i]], the input is untouched, and
// both outputs equal a comparison-sort reference over (global, id) pairs.
func checkCanonicalOrder(t *testing.T, globals []int64) {
	t.Helper()
	for _, workers := range []int{1, 3} {
		checkCanonicalOrderOn(t, globals, workers)
	}
}

func checkCanonicalOrderOn(t *testing.T, globals []int64, workers int) {
	t.Helper()
	input := slices.Clone(globals)
	sorted, order := CanonicalOrder(globals, workers)
	if !slices.Equal(globals, input) {
		t.Fatal("CanonicalOrder modified its input")
	}
	if len(sorted) != len(globals) || len(order) != len(globals) {
		t.Fatalf("%d globals gave %d sorted and %d order entries", len(globals), len(sorted), len(order))
	}
	seen := make([]bool, len(globals))
	for i, id := range order {
		if id < 0 || int(id) >= len(globals) || seen[id] {
			t.Fatalf("order is not a permutation: order[%d] = %d", i, id)
		}
		seen[id] = true
		if sorted[i] != globals[id] {
			t.Fatalf("sorted[%d] = %d, want globals[order[%d]] = %d", i, sorted[i], i, globals[id])
		}
	}
	type pair struct {
		g  int64
		id int32
	}
	ref := make([]pair, len(globals))
	for i, g := range globals {
		ref[i] = pair{g, int32(i)}
	}
	slices.SortFunc(ref, func(a, b pair) int { return cmp.Compare(a.g, b.g) })
	for i, p := range ref {
		if sorted[i] != p.g || order[i] != p.id {
			t.Fatalf("position %d: got (%d, id %d), reference sort gives (%d, id %d)", i, sorted[i], order[i], p.g, p.id)
		}
	}
}

// distinct drops repeated globals, keeping first occurrences in order.
func distinct(globals []int64) []int64 {
	seen := make(map[int64]bool, len(globals))
	out := globals[:0:0]
	for _, g := range globals {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// TestCanonicalOrderMatchesSort pins the radix sort against a comparison
// sort on the shapes the pipeline feeds it and on the corners of the
// byte-pass logic: empty and single lists, random keys, mixed-radix
// neighbors (a base plus or minus small multiples of one weight, as one
// fault shell produces), keys that agree on whole bytes (passes that keep
// the order),
// and spans of 2^56 and more, up to the full int64 range.
func TestCanonicalOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := map[string][]int64{
		"empty":       {},
		"single":      {42},
		"single-max":  {math.MaxInt64},
		"pair-desc":   {9, 3},
		"ascending":   {0, 1, 2, 3, 255, 256, 257},
		"descending":  {1 << 20, 1 << 16, 1 << 8, 1},
		"shared-high": {0x7700_0000_0000_0003, 0x7700_0000_0000_0001, 0x7700_0000_0000_0002},
		"gap-byte":    {5 << 24, 3 << 24, 4<<24 | 1, 4 << 24},
		"span-2^56":   {1 << 56, 0, 1<<56 - 1, 1},
		"span-max":    {math.MaxInt64, 0, math.MaxInt64 - 255, 256},
		"negative":    {-1, math.MinInt64, math.MaxInt64, 0, -256, 255},
	}
	for _, n := range []int{2, 100, 5000, 5*sealGrain + 17} { // the last spans several histogram chunks
		random := make([]int64, n)
		wide := make([]int64, n)
		for i := range random {
			random[i] = rng.Int63n(1 << 30)
			wide[i] = rng.Int63()
		}
		cases["random-"+strconv.Itoa(n)] = distinct(random)
		cases["random-wide-"+strconv.Itoa(n)] = distinct(wide)
	}
	var radix []int64
	for _, w := range []int64{1, 3, 81, 6561, 43046721} {
		base := rng.Int63n(1 << 40)
		for d := int64(-3); d <= 3; d++ {
			radix = append(radix, base+d*w, base+d*w+1, base+d*w-1)
		}
	}
	cases["mixed-radix"] = distinct(radix)
	for name, globals := range cases {
		t.Run(name, func(t *testing.T) { checkCanonicalOrder(t, globals) })
	}
}

// FuzzCanonicalOrder decodes the input as little-endian int64 globals
// (duplicates dropped) and checks CanonicalOrder against the reference
// comparison sort.
func FuzzCanonicalOrder(f *testing.F) {
	enc := func(gs ...int64) []byte {
		var b []byte
		for _, g := range gs {
			b = binary.LittleEndian.AppendUint64(b, uint64(g))
		}
		return b
	}
	f.Add([]byte{})
	f.Add(enc(7))
	f.Add(enc(3, 1, 2))
	f.Add(enc(6561+1, 6561-1, 6561, 2*6561, 0))
	f.Add(enc(1<<56, 0, 1<<57|1, 5))
	f.Add(enc(math.MaxInt64, math.MinInt64, -1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		globals := make([]int64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			globals = append(globals, int64(binary.LittleEndian.Uint64(data)))
		}
		checkCanonicalOrder(t, distinct(globals))
	})
}
