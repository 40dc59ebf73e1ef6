// Package stats provides the summary statistics used by the Monte-Carlo
// experiments: location and dispersion estimates, quantiles, empirical
// CDFs and normal-theory confidence intervals.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
	P95    float64
}

// Summarize computes descriptive statistics of the sample, leaving it
// untouched. An empty sample yields a zero Summary.
func Summarize(sample []float64) Summary {
	return SummarizeSorted(slices.Sorted(slices.Values(sample)))
}

// SummarizeSorted is Summarize over a sample already in ascending order,
// for callers that sort once and summarize more than once.
func SummarizeSorted(sorted []float64) Summary {
	n := len(sorted)
	if n == 0 {
		return Summary{}
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(n)
	varAcc := 0.0
	for _, v := range sorted {
		d := v - mean
		varAcc += d * d
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(varAcc / float64(n-1))
	}
	return Summary{
		Count:  n,
		Mean:   mean,
		Std:    std,
		Min:    sorted[0],
		Max:    sorted[n-1],
		Median: Quantile(sorted, 0.5),
		P95:    Quantile(sorted, 0.95),
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDFPoint is one point of an empirical cumulative distribution: the
// sample value at (interpolated) quantile P.
type CDFPoint struct {
	P     float64
	Value float64
}

// DefaultQuantiles are the quantiles CDFSorted evaluates when given none: the
// distribution shape the convergence/re-stabilization reports print.
var DefaultQuantiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1}

// CDFSorted returns the empirical distribution of a sample in ascending
// order evaluated at the given quantiles (DefaultQuantiles when qs is
// nil), using the same linear interpolation as Quantile. An empty sample
// yields nil.
func CDFSorted(sorted []float64, qs []float64) []CDFPoint {
	if len(sorted) == 0 {
		return nil
	}
	if qs == nil {
		qs = DefaultQuantiles
	}
	out := make([]CDFPoint, len(qs))
	for i, q := range qs {
		out[i] = CDFPoint{P: q, Value: Quantile(sorted, q)}
	}
	return out
}

// FormatCDF renders CDF points as "p10=… p25=… … max=…" (quantile 1 is
// labeled max).
func FormatCDF(points []CDFPoint) string {
	var sb strings.Builder
	for i, pt := range points {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if pt.P >= 1 {
			fmt.Fprintf(&sb, "max=%.6g", pt.Value)
		} else {
			fmt.Fprintf(&sb, "p%g=%.6g", pt.P*100, pt.Value)
		}
	}
	return sb.String()
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (1.96 * std / sqrt(n)); 0 for samples smaller than 2.
func (s Summary) CI95() float64 {
	if s.Count < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.Count))
}

// String renders "mean=… ±ci std=… min=… med=… p95=… max=… (n=…)".
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.2f ±%.2f std=%.2f min=%.0f med=%.1f p95=%.1f max=%.0f (n=%d)",
		s.Mean, s.CI95(), s.Std, s.Min, s.Median, s.P95, s.Max, s.Count)
}

// StringOf renders like String but with an explicit censoring
// denominator, "(n=count/of)": the statistics describe Count samples out
// of `of` attempted. Use it whenever a summary covers only the
// converged/hit subset of a batch, so the sample size is never mistaken
// for the batch size.
func (s Summary) StringOf(of int) string {
	return fmt.Sprintf("mean=%.2f ±%.2f std=%.2f min=%.0f med=%.1f p95=%.1f max=%.0f (n=%d/%d)",
		s.Mean, s.CI95(), s.Std, s.Min, s.Median, s.P95, s.Max, s.Count, of)
}
