// Reverse-CSR construction and backward reachability. Every "does X reach
// the target set" question the checker and the Markov analysis ask is a
// multi-source BFS over the predecessor graph; this file builds that graph
// once per space by a counting sort over edge-balanced source ranges and
// expands large BFS frontiers, both on ForRanges, the pool every parallel
// loop of the analysis runs on. Self-loops are dropped at build time: no
// reachability pass can use them (a self-loop never reaches anything new
// and never shortens a path).
package statespace

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// Reverse is the predecessor (reverse-CSR) view of a forward CSR graph:
// Preds(t) lists the states with an edge into t, sorted ascending.
type Reverse struct {
	Off []int64 // row offsets, len states+1
	Src []int32 // predecessor state indexes, ascending per row
}

// Preds returns the predecessors of t. The slice aliases the view; callers
// must not modify it.
func (r Reverse) Preds(t int32) []int32 { return r.Src[r.Off[t]:r.Off[t+1]] }

// States returns the number of states of the underlying graph.
func (r Reverse) States() int { return len(r.Off) - 1 }

// serialReverseLimit is the edge count below which the counting sort runs
// as one source range (the pass is memory-bound; small graphs cannot
// amortize worker startup).
const serialReverseLimit = 1 << 16

// maxReverseWorkers bounds the per-worker count arrays (one int32 per
// state per worker) the parallel counting sort allocates.
const maxReverseWorkers = 16

// ReverseCSR builds the predecessor view of the forward CSR (off, succ)
// over states states by counting sort: one pass counts indegrees per
// source range, a prefix sum lays out the rows, and a second pass scatters
// sources into their slots; both passes run one source range per worker on
// ForRanges. Source ranges are contiguous and scanned in order, so every
// predecessor row comes out sorted ascending and the result is identical
// for every worker count. Self-loops are dropped.
func ReverseCSR(states int, off []int64, succ []int32, workers int) Reverse {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	edges := int64(len(succ))
	if edges < serialReverseLimit {
		workers = 1
	}
	workers = min(workers, maxReverseWorkers)
	// Edge-balanced contiguous source ranges: worker w owns states
	// [bounds[w], bounds[w+1]).
	bounds := make([]int, workers+1)
	bounds[workers] = states
	for w := 1; w < workers; w++ {
		cut := edges * int64(w) / int64(workers)
		bounds[w] = sort.Search(states, func(s int) bool { return off[s] >= cut })
	}
	cnt := make([][]int32, workers)
	ForRanges(workers, workers, 1, func(w, _ int) error {
		c := make([]int32, states)
		for s := bounds[w]; s < bounds[w+1]; s++ {
			for _, t := range succ[off[s]:off[s+1]] {
				if int(t) != s {
					c[t]++
				}
			}
		}
		cnt[w] = c
		return nil
	})
	// Row layout + per-worker write cursors (relative to the row start, so
	// they fit in the count arrays being repurposed).
	roff := make([]int64, states+1)
	var at int64
	for t := 0; t < states; t++ {
		roff[t] = at
		rel := int32(0)
		for w := 0; w < workers; w++ {
			n := cnt[w][t]
			cnt[w][t] = rel
			rel += n
		}
		at += int64(rel)
	}
	roff[states] = at
	rsrc := make([]int32, at)
	ForRanges(workers, workers, 1, func(w, _ int) error {
		cur := cnt[w]
		for s := bounds[w]; s < bounds[w+1]; s++ {
			for _, t := range succ[off[s]:off[s+1]] {
				if int(t) != s {
					rsrc[roff[t]+int64(cur[t])] = int32(s)
					cur[t]++
				}
			}
		}
		return nil
	})
	return Reverse{Off: roff, Src: rsrc}
}

// parallelFrontierMin is the frontier size below which a BFS level expands
// single-threaded.
const parallelFrontierMin = 1 << 12

// BackwardBFS runs a multi-source BFS over the reverse edges and returns,
// for every state, the length of its shortest forward path into the seed
// set: 0 on the seeds themselves, -1 where no path exists. skipPred, when
// non-nil, forbids states from occurring in the interior of a path: an
// edge pre->s is not traversed when skipPred[pre] (seeds are still
// reported as 0 regardless). Large frontiers expand in parallel on the
// worker pool; distances are level-synchronous and therefore identical for
// every worker count.
func (r Reverse) BackwardBFS(seed []bool, skipPred []bool, workers int) []int32 {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	states := r.States()
	dist := make([]int32, states)
	for i := range dist {
		dist[i] = -1
	}
	var frontier []int32
	for s := 0; s < states; s++ {
		if seed[s] {
			dist[s] = 0
			frontier = append(frontier, int32(s))
		}
	}
	var spare []int32 // retired frontier recycled as the next level's buffer
	for level := int32(1); len(frontier) > 0; level++ {
		if workers == 1 || len(frontier) < parallelFrontierMin {
			next := spare[:0]
			for _, s := range frontier {
				for _, pre := range r.Preds(s) {
					if skipPred != nil && skipPred[pre] {
						continue
					}
					if dist[pre] == -1 {
						dist[pre] = level
						next = append(next, pre)
					}
				}
			}
			spare = frontier
			frontier = next
			continue
		}
		// Parallel expansion: workers claim frontier slices and mark
		// predecessors by CAS, so every state joins the next frontier
		// exactly once. A plain atomic load first skips already-marked
		// predecessors without a locked instruction. The marked set is
		// independent of the race winners, so distances stay deterministic.
		per := (len(frontier) + workers - 1) / workers
		parts := make([][]int32, workers)
		ForRanges(len(frontier), workers, per, func(lo, hi int) error {
			var local []int32
			for _, s := range frontier[lo:hi] {
				for _, pre := range r.Preds(s) {
					if skipPred != nil && skipPred[pre] {
						continue
					}
					if atomic.LoadInt32(&dist[pre]) == -1 && atomic.CompareAndSwapInt32(&dist[pre], -1, level) {
						local = append(local, pre)
					}
				}
			}
			parts[lo/per] = local
			return nil
		})
		frontier = frontier[:0]
		for _, p := range parts {
			frontier = append(frontier, p...)
		}
	}
	return dist
}
