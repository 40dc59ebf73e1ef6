// Package stats provides the summary statistics used by the Monte-Carlo
// experiments: location and dispersion estimates, quantiles, empirical
// CDFs and normal-theory confidence intervals, over a sorted sample or a
// Hist of integer samples.
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
	return summarize(len(sorted), sliceRanks(sorted))
}

// ranks reads an ascending sample by rank: it returns the value v of
// rank i and an end > i such that every rank in [i, end) holds v. The
// summary routines below read every sample through one, so a sorted
// slice and a Hist go through the same float operations in the same
// order.
type ranks func(i int) (v float64, end int)

// sliceRanks reads a sorted slice, one rank at a time.
func sliceRanks(sorted []float64) ranks {
	return func(i int) (float64, int) { return sorted[i], i + 1 }
}

// summarize is SummarizeSorted over the n ranks of at.
func summarize(n int, at ranks) Summary {
	if n == 0 {
		return Summary{}
	}
	sum := 0.0
	for i := 0; i < n; {
		v, end := at(i)
		for ; i < end; i++ {
			sum += v
		}
	}
	mean := sum / float64(n)
	varAcc := 0.0
	for i := 0; i < n; {
		v, end := at(i)
		d := v - mean
		for ; i < end; i++ {
			varAcc += d * d
		}
	}
	std := 0.0
	if n > 1 {
		std = math.Sqrt(varAcc / float64(n-1))
	}
	lo, _ := at(0)
	hi, _ := at(n - 1)
	return Summary{
		Count:  n,
		Mean:   mean,
		Std:    std,
		Min:    lo,
		Max:    hi,
		Median: quantile(n, at, 0.5),
		P95:    quantile(n, at, 0.95),
	}
}

// quantile returns the q-quantile (0 <= q <= 1) of the n > 0 ranks of
// at, interpolating linearly between ranks.
func quantile(n int, at ranks, q float64) float64 {
	if q <= 0 {
		v, _ := at(0)
		return v
	}
	if q >= 1 {
		v, _ := at(n - 1)
		return v
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo, _ := at(lo)
	if lo == hi {
		return vlo
	}
	vhi, _ := at(hi)
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
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
// nil), interpolating linearly between ranks as Summary's median and
// P95 do. An empty sample yields nil.
func CDFSorted(sorted []float64, qs []float64) []CDFPoint {
	return cdf(len(sorted), sliceRanks(sorted), qs)
}

// cdf is CDFSorted over the n ranks of at.
func cdf(n int, at ranks, qs []float64) []CDFPoint {
	if n == 0 {
		return nil
	}
	if qs == nil {
		qs = DefaultQuantiles
	}
	out := make([]CDFPoint, len(qs))
	for i, q := range qs {
		out[i] = CDFPoint{P: q, Value: quantile(n, at, q)}
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
