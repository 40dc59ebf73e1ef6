package stats

import (
	"slices"
	"sort"
)

// Hist is a sample of non-negative integers held as counts: a value below
// the histogram's limit adds one to its count, a larger one goes to an
// overflow list. It reads as the ascending sample without holding it, so
// its memory grows with the largest value below the limit, not with the
// sample size. Summary and CDF give what SummarizeSorted and CDFSorted
// give on the sorted sample, bit for bit. The zero value is an empty
// histogram of limit 0, every value overflowing.
type Hist struct {
	limit  int
	counts []int     // counts[v] samples equal v, for every v < limit
	dense  int       // the samples in counts
	over   []float64 // the samples at or above limit, ascending once sealed
}

// NewHist returns an empty histogram that counts the values below limit
// and lists the rest.
func NewHist(limit int) *Hist { return &Hist{limit: limit} }

// Add adds v >= 0 to the sample.
func (h *Hist) Add(v int) {
	if v >= h.limit {
		h.over = append(h.over, float64(v))
		return
	}
	if v >= len(h.counts) {
		h.counts = append(h.counts, make([]int, v+1-len(h.counts))...)
	}
	h.counts[v]++
	h.dense++
}

// Seal sorts the overflow list. Call it after the last Add and before the
// first read.
func (h *Hist) Seal() { slices.Sort(h.over) }

// Len returns the sample size.
func (h *Hist) Len() int { return h.dense + len(h.over) }

// Summary is SummarizeSorted of the sorted sample.
func (h *Hist) Summary() Summary { return summarize(h.Len(), h.ranks()) }

// CDF is CDFSorted of the sorted sample.
func (h *Hist) CDF(qs []float64) []CDFPoint { return cdf(h.Len(), h.ranks(), qs) }

// CountAtMost returns how many samples are <= t.
func (h *Hist) CountAtMost(t float64) int {
	n := 0
	for v, c := range h.counts {
		if !(float64(v) <= t) {
			break
		}
		n += c
	}
	return n + sort.Search(len(h.over), func(i int) bool { return !(h.over[i] <= t) })
}

// ranks reads the histogram by rank. A rank below dense lies in a count,
// which is the run it returns: a cursor resumes from the count the last
// call stopped at (or from the first, for an earlier rank), so reading
// the ranks in order walks the counts once. The overflow ranks follow,
// one at a time.
func (h *Hist) ranks() ranks {
	v, lo := 0, 0 // counts[v] holds the ranks [lo, lo+counts[v])
	return func(i int) (float64, int) {
		if i >= h.dense {
			return h.over[i-h.dense], i + 1
		}
		if i < lo {
			v, lo = 0, 0
		}
		for i >= lo+h.counts[v] {
			lo += h.counts[v]
			v++
		}
		return float64(v), lo + h.counts[v]
	}
}
