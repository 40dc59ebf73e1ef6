package markov

import (
	"math"
	"testing"
)

// blockChain builds `blocks` independent strongly connected 8-state
// cycles, each escaping straight to the absorbing target — many dense
// blocks (the case the scratch pool exists for) with a shallow BFS depth,
// so block-buffer allocations dominate any measurement.
func blockChain(tb testing.TB, blocks int) (*Chain, []bool) {
	tb.Helper()
	const m = 8
	n := blocks*m + 1
	rows := make([][]arc, n)
	for b := 0; b < blocks; b++ {
		base := b * m
		for i := 0; i < m; i++ {
			rows[base+i] = []arc{{base + (i+1)%m, 0.5}, {n - 1, 0.5}}
		}
	}
	c := chainOf(tb, rows)
	target := make([]bool, n)
	target[n-1] = true
	return c, target
}

// TestHittingTimesScratchReuse pins the solver's steady-state allocation
// behavior: with the per-worker scratch pool, repeated solves over one
// chain must not allocate per-block buffers. Without the pool this chain
// costs ≥ 3 allocations per dense block (matrix backing store, row
// pointers, solution) — 600 for 200 blocks; with it, a solve stays under
// a small fixed overhead independent of the block count.
func TestHittingTimesScratchReuse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	c, target := blockChain(t, 200)
	c.workers = 1 // single-threaded: one pooled scratch serves every block
	// Warm up: cache the reverse CSR and size the scratch.
	if _, err := c.HittingTimes(target); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		h, err := c.HittingTimes(target)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(h[0], 1) {
			t.Fatal("divergent hitting time in an absorbing chain")
		}
	})
	// Fixed per-solve overhead (result vector, reachability vectors, SCC
	// arrays, block layout) is ~25 allocations; 100 leaves slack while
	// still failing hard if block buffers (3/block × 200 blocks) return.
	if allocs > 100 {
		t.Fatalf("HittingTimes allocates %.0f objects per solve; scratch reuse regressed", allocs)
	}
}

// TestScratchReuseCorrectness re-solves with deliberately dirtied pool
// buffers between runs: results must be identical whether scratch is fresh
// or recycled (buffers are zeroed/overwritten per block).
func TestScratchReuseCorrectness(t *testing.T) {
	c, target := blockChain(t, 50)
	c.workers = 1
	first, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		again, err := c.HittingTimes(target)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d: h[%d] = %g, first solve gave %g", run, i, again[i], first[i])
			}
		}
	}
}
