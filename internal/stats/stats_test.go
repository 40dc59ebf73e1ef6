package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	// Sample std of 1..5 is sqrt(2.5).
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %g, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Count != 1 || s.Mean != 7 || s.Std != 0 || s.CI95() != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

// TestSortedVariantsMatch: the sorted-input entry point gives exactly
// what Summarize gives on the unsorted sample.
func TestSortedVariantsMatch(t *testing.T) {
	in := []float64{9, 1, 4, 4, 0, 13, 2, 7, 1, 5}
	sorted := []float64{0, 1, 1, 2, 4, 4, 5, 7, 9, 13}
	if got, want := SummarizeSorted(sorted), Summarize(in); got != want {
		t.Fatalf("SummarizeSorted = %+v, Summarize = %+v", got, want)
	}
	if SummarizeSorted(nil) != (Summary{}) || CDFSorted(nil, nil) != nil {
		t.Fatal("empty sorted sample must give a zero Summary and a nil CDF")
	}
}

// TestQuantile: CDFSorted interpolates linearly between ranks and clamps
// quantiles outside [0, 1] to the extremes.
func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	tests := []struct{ q, want float64 }{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5}, {-1, 0}, {2, 40},
	}
	for _, tc := range tests {
		if got := CDFSorted(sorted, []float64{tc.q})[0].Value; math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("quantile %g = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestCI95ShrinksWithSampleSize(t *testing.T) {
	small := Summarize(make([]float64, 10))
	big := Summarize(make([]float64, 1000))
	// Zero variance: both zero; use alternating data instead.
	alt := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i % 2)
		}
		return out
	}
	small, big = Summarize(alt(10)), Summarize(alt(1000))
	if small.CI95() <= big.CI95() {
		t.Fatalf("CI95: n=10 %g should exceed n=1000 %g", small.CI95(), big.CI95())
	}
}

func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
			// Bound magnitudes so the mean cannot overflow: the invariants
			// are about ordering, not extreme-value arithmetic.
			raw[i] = math.Mod(raw[i], 1e9)
		}
		s := Summarize(raw)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Median <= s.P95 && s.P95 <= s.Max &&
			s.Std >= 0 && s.Count == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	out := s.String()
	if !strings.Contains(out, "n=3") || !strings.Contains(out, "mean=2.00") {
		t.Fatalf("String = %q", out)
	}
}

func TestSummaryStringOf(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	out := s.StringOf(10)
	if !strings.Contains(out, "(n=3/10)") {
		t.Fatalf("StringOf = %q, want n=3/10 denominator", out)
	}
}

func TestCDF(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5}
	pts := CDFSorted(sample, nil)
	if len(pts) != len(DefaultQuantiles) {
		t.Fatalf("%d points, want %d", len(pts), len(DefaultQuantiles))
	}
	for i, pt := range pts {
		if pt.P != DefaultQuantiles[i] {
			t.Fatalf("point %d has P=%g, want %g", i, pt.P, DefaultQuantiles[i])
		}
		if i > 0 && pt.Value < pts[i-1].Value {
			t.Fatalf("CDF not monotone at %d: %v", i, pts)
		}
	}
	if last := pts[len(pts)-1]; last.P != 1 || last.Value != 5 {
		t.Fatalf("max point %+v, want P=1 Value=5", last)
	}
	// Explicit quantiles interpolate between ranks.
	custom := CDFSorted(sample, []float64{0, 0.5, 1})
	if custom[0].Value != 1 || custom[1].Value != 3 || custom[2].Value != 5 {
		t.Fatalf("custom quantiles %v", custom)
	}
	if CDFSorted(nil, nil) != nil {
		t.Fatal("CDF of empty sample should be nil")
	}
}

func TestFormatCDF(t *testing.T) {
	out := FormatCDF(CDFSorted([]float64{1, 2, 3, 4}, []float64{0.5, 0.75, 1}))
	if out != "p50=2.5 p75=3.25 max=4" {
		t.Fatalf("FormatCDF = %q", out)
	}
	if FormatCDF(nil) != "" {
		t.Fatal("FormatCDF of no points should be empty")
	}
}
