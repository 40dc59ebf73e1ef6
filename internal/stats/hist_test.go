package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameSummary reports whether two summaries agree bit for bit.
func sameSummary(a, b Summary) bool {
	fa := []float64{a.Mean, a.Std, a.Min, a.Max, a.Median, a.P95}
	fb := []float64{b.Mean, b.Std, b.Min, b.Max, b.Median, b.P95}
	return a.Count == b.Count && slices.EqualFunc(fa, fb, sameBits)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestHistMatchesSorted: a histogram of an integer sample gives, bit for
// bit, the Summary and CDF that SummarizeSorted and CDFSorted give on the
// sorted sample, and counts the samples at or below t as a linear scan
// does. The 2,000 seeded samples put their values below the histogram's
// limit, above it or on both sides of it; the named ones are the edge
// cases.
func TestHistMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ints := func(n, top int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(top + 1)
		}
		return out
	}
	type sample struct {
		name  string
		limit int
		vals  []int
	}
	samples := []sample{
		{"empty", 10, nil},
		{"empty/limit0", 0, nil},
		{"single/dense", 10, []int{3}},
		{"single/over", 10, []int{12}},
		{"zero", 1, []int{0}},
		{"all equal/dense", 100, slices.Repeat([]int{7}, 50)},
		{"all equal/over", 5, slices.Repeat([]int{7}, 50)},
		{"straddle/limit", 9, []int{6, 36, 12, 9, 8, 7, 17, 34, 10}},
		{"straddle/just below and at", 100, append(ints(99, 98), 99, 100)},
		{"limit0", 0, ints(300, 40)},
	}
	for i := range 2000 {
		n := rng.Intn(300)
		limit := rng.Intn(200)
		top := []int{limit / 2, limit, 2 * limit, 5000}[i%4]
		samples = append(samples, sample{"seeded", limit, ints(n, top)})
	}
	// Quantiles out of order make the histogram's cursor walk back.
	qs := []float64{0.9, 0.1, 0.5, 1, 0, 0.37, 0.99, 0.25}
	for _, s := range samples {
		h := NewHist(s.limit)
		sorted := make([]float64, len(s.vals))
		for i, v := range s.vals {
			h.Add(v)
			sorted[i] = float64(v)
		}
		h.Seal()
		slices.Sort(sorted)
		if h.Len() != len(sorted) {
			t.Fatalf("%s: Len %d, want %d", s.name, h.Len(), len(sorted))
		}
		if got, want := h.Summary(), SummarizeSorted(sorted); !sameSummary(got, want) {
			t.Fatalf("%s (limit %d, %v): Summary %+v, SummarizeSorted %+v", s.name, s.limit, s.vals, got, want)
		}
		for _, q := range [][]float64{nil, qs} {
			got, want := h.CDF(q), CDFSorted(sorted, q)
			if !slices.EqualFunc(got, want, func(a, b CDFPoint) bool { return sameBits(a.P, b.P) && sameBits(a.Value, b.Value) }) {
				t.Fatalf("%s (limit %d, %v): CDF %v, CDFSorted %v", s.name, s.limit, s.vals, got, want)
			}
		}
		ts := []float64{-1, -0.5, math.Inf(1), math.Inf(-1), math.NaN(), float64(s.limit)}
		for _, v := range sorted {
			ts = append(ts, v, v-0.5, v+0.5)
		}
		for _, at := range ts {
			want := 0
			for _, v := range sorted {
				if v <= at {
					want++
				}
			}
			if got := h.CountAtMost(at); got != want {
				t.Fatalf("%s (limit %d, %v): CountAtMost(%v) = %d, linear count %d", s.name, s.limit, s.vals, at, got, want)
			}
		}
	}
}
