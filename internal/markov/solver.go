// The sparse hitting-time solver. The expected hitting times h of a target
// set satisfy, over the transient states that hit it with probability 1,
//
//	h(s) = 1 + Σ_t P(s,t) h(t),   h = 0 on the target,
//
// a sparse linear system (I-Q)h = 1. Instead of densifying it (O(m³) and
// O(m²) memory) or iterating over the whole system at once, the solver
// condenses the transient subgraph into its strongly connected components:
// h(s) only depends on h within s's SCC and on states in SCCs reachable
// from it, so the blocks form a DAG and are solved in reverse topological
// order — singleton components by one forward substitution, small blocks
// by dense Gaussian elimination, large blocks by red-black parallel
// Gauss–Seidel with residual-confirmed convergence. Blocks solve one at a
// time in dependency order unless the condensation holds several
// iterative blocks; then, on a worker pool, the blocks are grouped into
// levels of the condensation DAG, each level reading only lower ones, and
// the blocks of a level solve concurrently. The result is deterministic
// for every worker count.
package markov

import (
	"context"
	"fmt"
	"math"
	"sync"

	"weakstab/internal/obs"
	"weakstab/internal/statespace"
)

// Solver tunables. Variables rather than constants so the tests can force
// every block-solve path on small instances.
var (
	// denseBlockLimit is the largest SCC solved by direct Gaussian
	// elimination; larger blocks iterate.
	denseBlockLimit = 32
	// gsDeltaTol is the relative per-sweep change below which Gauss–Seidel
	// checks its residual.
	gsDeltaTol = 1e-12
	// gsResidTol is the relative residual below which a block is accepted.
	gsResidTol = 1e-10
	// gsMaxIter caps Gauss–Seidel sweeps per block.
	gsMaxIter = 2_000_000
	// parallelBlockMin is the smallest block whose sweeps run on the
	// worker pool.
	parallelBlockMin = 1 << 13
	// levelMinGS is the fewest Gauss–Seidel blocks a condensation needs
	// before its levels solve on the worker pool: a singleton or dense
	// block costs about as much as the edge scan that assigns levels.
	levelMinGS = 2
	// levelGrain is the fewest states a chunk of one level's blocks holds
	// when the level is solved on the worker pool.
	levelGrain = gsGrain
)

// gsGrain is the chunk size of parallel Gauss–Seidel sweeps.
const gsGrain = 1 << 11

// gsCheckEvery is how many sequential Gauss–Seidel sweeps run between
// convergence probes (the iteration is monotone, so overshooting by a few
// sweeps is harmless and tracking deltas every sweep is not).
const gsCheckEvery = 8

// blockScratch is one worker's reusable block-solve buffers: the dense
// elimination's augmented matrix and the Gauss–Seidel compaction arrays.
// Buffers grow to the largest block a worker ever solves and are recycled
// through blockScratchPool, so repeated HittingTimes calls over one space
// (parameter sweeps like E12c's bias ablation) allocate no block buffers
// in steady state.
type blockScratch struct {
	flat []float64   // dense: augmented matrix backing store
	rows [][]float64 // dense: row pointers into flat
	bOff []int64     // GS: in-block CSR offsets
	bTo  []int32     // GS: in-block targets (local)
	bP   []float64   // GS: in-block probabilities
	ext  []float64   // GS: constant terms
	diag []float64   // GS: diagonal 1 - P(s,s)
	x    []float64   // GS: iterate
	snap []float64   // GS: red-black staged color values
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// growF64 returns a len-n slice backed by buf when it has the capacity,
// allocating otherwise. Contents are unspecified; callers overwrite or
// zero as needed.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// HittingTimes returns the expected number of steps to first reach the
// target set from every state (0 on the target itself, +Inf where the
// target is not hit with probability 1), by SCC condensation of the
// transient subgraph. The answer is exact (up to floating point) for
// acyclic condensations and dense blocks, and iterated to a confirmed
// residual inside large strongly connected blocks.
func (c *Chain) HittingTimes(target []bool) ([]float64, error) {
	return c.HittingTimesContext(context.Background(), target)
}

// HittingTimesContext is HittingTimes with cooperative cancellation: ctx
// is checked before every SCC block, so a cancelled solve returns an
// error wrapping ctx.Err() without finishing the condensation walk.
func (c *Chain) HittingTimesContext(ctx context.Context, target []bool) ([]float64, error) {
	if len(target) != c.n {
		return nil, fmt.Errorf("markov: target length %d != states %d", len(target), c.n)
	}
	probOne := c.ReachesWithProbOne(target)
	h := make([]float64, c.n)
	transient := make([]bool, c.n)
	m := 0
	for s := 0; s < c.n; s++ {
		switch {
		case !probOne[s]:
			h[s] = math.Inf(1)
		case !target[s]:
			transient[s] = true
			m++
		}
	}
	if m == 0 {
		return h, nil
	}
	if err := c.solveSCC(ctx, target, transient, h); err != nil {
		return nil, err
	}
	return h, nil
}

// solveSCC fills h over the transient states. Every transient state's
// successors are transient or target (probability-1 reachability is closed
// under successors), so h of every cross-block edge target is final by the
// time a block solves. ctx is checked before every block.
func (c *Chain) solveSCC(ctx context.Context, target, transient []bool, h []float64) error {
	cond := c.condense(target, transient)
	// The blocks are the components inside transient, in ascending id:
	// block i is component blocks[i]. local[s] is s's position within its
	// block. Block counts by kind choose the schedule below. They and the
	// size histogram go to the process observer once per solve: singleton
	// and dense blocks can number in the hundreds of thousands, so they
	// are counted, not evented, and no handle is looked up per block. The
	// iterative blocks emit one solver.block event each at convergence.
	var blocks []int32
	local := make([]int32, c.n)
	var kinds [3]int64 // singleton, dense and Gauss–Seidel blocks
	for b := 0; b < cond.Count(); b++ {
		states := cond.Component(b)
		if !transient[states[0]] {
			continue
		}
		blocks = append(blocks, int32(b))
		for i, s := range states {
			local[s] = int32(i)
		}
		switch size := len(states); {
		case size == 1:
			kinds[0]++
		case size <= denseBlockLimit:
			kinds[1]++
		default:
			kinds[2]++
		}
	}
	numBlocks := int32(len(blocks))
	if o := c.observer(); o.On() {
		sizes := o.Histogram("solver.block_states")
		for _, b := range blocks {
			sizes.Observe(int64(len(cond.Component(int(b)))))
		}
		for k, name := range []string{"solver.blocks.singleton", "solver.blocks.dense", "solver.blocks.gs"} {
			if kinds[k] > 0 {
				o.Counter(name).Add(kinds[k])
			}
		}
	}
	workers := c.analysisWorkers()
	solve := func(i int32) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("markov: hitting-time solve canceled at block %d of %d: %w", i, numBlocks, err)
		}
		b := blocks[i]
		return c.solveBlock(b, cond.Component(int(b)), local, cond.Comp, h, workers)
	}
	if workers <= 1 || kinds[2] < int64(levelMinGS) {
		// Tarjan emits components in reverse topological order (every
		// cross edge points into a lower id), so ascending id order is
		// dependency order; the pool splits large blocks' sweeps.
		for i := range numBlocks {
			if err := solve(i); err != nil {
				return err
			}
		}
		return nil
	}

	// Level schedule: a block's level is 1 + the highest level of any
	// block it has an edge into, so the blocks of one level read only
	// lower levels and solve concurrently. Every cross edge points into a
	// lower id, so one ascending pass fills every level (indexed by
	// component id; a transient state's successors are transient or
	// target, so every cross edge ends in a block).
	level := make([]int32, cond.Count())
	numLevels := int32(0)
	for _, b := range blocks {
		lv := int32(0)
		for _, s := range cond.Component(int(b)) {
			for _, t := range c.rowSucc(int(s)) {
				if tb := cond.Comp[t]; tb >= 0 && tb != b {
					lv = max(lv, level[tb]+1)
				}
			}
		}
		level[b] = lv
		numLevels = max(numLevels, lv+1)
	}
	// Counting sort: the blocks of level l, ascending, are
	// order[levelOff[l]:levelOff[l+1]].
	levelOff := make([]int32, numLevels+1)
	for _, b := range blocks {
		levelOff[level[b]+1]++
	}
	for l := int32(0); l < numLevels; l++ {
		levelOff[l+1] += levelOff[l]
	}
	order := make([]int32, numBlocks)
	next := append([]int32(nil), levelOff[:numLevels]...)
	for i, b := range blocks {
		lv := level[b]
		order[next[lv]] = int32(i)
		next[lv]++
	}
	// The blocks of the level being solved, cut into chunks: chunk k is
	// run[cut[k]:cut[k+1]].
	var (
		run []int32
		cut []int
	)
	solveChunk := func(k, _ int) error {
		for _, i := range run[cut[k]:cut[k+1]] {
			if err := solve(i); err != nil {
				return err
			}
		}
		return nil
	}
	for l := int32(0); l < numLevels; l++ {
		// Chunks are runs of consecutive blocks holding at least
		// levelGrain states; a block that large is a chunk of its own.
		run = order[levelOff[l]:levelOff[l+1]]
		cut = append(cut[:0], 0)
		states := 0
		for k, i := range run {
			size := len(cond.Component(int(blocks[i])))
			if states > 0 && size >= levelGrain {
				cut = append(cut, k)
				states = 0
			}
			if states += size; states >= levelGrain {
				cut = append(cut, k+1)
				states = 0
			}
		}
		if states > 0 {
			cut = append(cut, len(run))
		}
		if err := statespace.ForRanges(len(cut)-1, workers, 1, solveChunk); err != nil {
			return err
		}
	}
	return nil
}

// condense returns a condensation whose components inside transient are
// the transient blocks. When target is the backing system's L, that is
// the system's memoized condensation of the illegitimate subgraph, not a
// second Tarjan: each of its components lies wholly inside or wholly
// outside transient, because the probability-1 set is closed under
// non-target successors, so its components inside transient, in
// ascending id, are exactly the transient blocks, in reverse-topological
// order with the same ascending members. Otherwise it condenses transient.
func (c *Chain) condense(target, transient []bool) statespace.Condensation {
	if c.legitTarget(target) {
		return c.sp.IllegitSCC()
	}
	return statespace.SCC(c.n, c.off, c.succ, transient)
}

// solveBlock solves one strongly connected block, reading final h values
// for every out-of-block edge target and writing h for its members.
func (c *Chain) solveBlock(b int32, states []int32, local, comp []int32, h []float64, workers int) error {
	if len(states) == 1 {
		// Singleton: h(s) = (1 + Σ_{t≠s} P(s,t) h(t)) / (1 - P(s,s)) — a
		// trivial forward substitution on the condensation DAG.
		s := int(states[0])
		ext, self := 1.0, 0.0
		for e := c.off[s]; e < c.off[s+1]; e++ {
			if t, p := c.succ[e], c.prob.At(e); int(t) == s {
				self += p
			} else {
				ext += p * h[t]
			}
		}
		d := 1 - self
		if d <= 0 {
			return fmt.Errorf("markov: singular hitting-time system at state %d (self-loop mass %g)", s, self)
		}
		h[s] = ext / d
		return nil
	}
	if len(states) <= denseBlockLimit {
		return c.solveBlockDense(b, states, local, comp, h)
	}
	return c.solveBlockGS(b, states, local, comp, h, workers)
}

// observeGS records one converged iterative block: the cumulative sweep
// counter always, the structured solver.block event only when enabled.
func observeGS(o *obs.Observer, size int, kind string, iters int, residual float64) {
	o.Counter("solver.gs_sweeps").Add(int64(iters))
	if o.On() {
		o.Emit("solver.block", obs.SolverBlock{Size: size, Kind: kind, Iters: iters, Residual: residual})
	}
}

// solveBlockDense eliminates one block directly: rows are (I-Q) restricted
// to the block, the right-hand side folds in the solved mass leaving it.
// Matrix storage comes from the per-worker scratch pool.
func (c *Chain) solveBlockDense(b int32, states []int32, local, comp []int32, h []float64) error {
	m, prob := len(states), c.prob
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	sc.flat = growF64(sc.flat, m*(m+1))
	flat := sc.flat
	for i := range flat {
		flat[i] = 0
	}
	if cap(sc.rows) < m {
		sc.rows = make([][]float64, m)
	}
	a := sc.rows[:m]
	for i, sv := range states {
		s := int(sv)
		row := flat[i*(m+1) : (i+1)*(m+1)]
		row[i] = 1
		rhs := 1.0
		for e := c.off[s]; e < c.off[s+1]; e++ {
			if t, p := c.succ[e], prob.At(e); comp[t] == b {
				row[local[t]] -= p
			} else {
				rhs += p * h[t]
			}
		}
		row[m] = rhs
		a[i] = row
	}
	// gaussSolve back-substitutes into ext (reused as the solution buffer)
	// instead of allocating.
	sc.ext = growF64(sc.ext, m)
	if err := gaussSolve(a, sc.ext); err != nil {
		return err
	}
	for i, sv := range states {
		h[sv] = sc.ext[i]
	}
	return nil
}

// solveBlockGS iterates one large block with red-black Gauss–Seidel: the
// block's states are split into two color ranges; each half-sweep updates
// one color in parallel, reading the other color's fresh values and its
// own color's pre-phase values. The new values of the color are staged in
// a side buffer and copied back after the half-sweep, so every neighbor
// is read from one array without a per-edge color test; each update sums
// the same products in the same order whatever the staging, so sweeps
// are race-free and bit-identical for every worker count. Iteration stops
// only after an explicit residual pass confirms convergence.
func (c *Chain) solveBlockGS(b int32, states []int32, local, comp []int32, h []float64, workers int) error {
	m, prob := len(states), c.prob
	sc := blockScratchPool.Get().(*blockScratch)
	defer blockScratchPool.Put(sc)
	// Compact the block: in-block edges in local indexes plus, per state,
	// the constant ext (1 + mass into solved states) and diagonal 1-P(s,s).
	sc.bOff = growI64(sc.bOff, m+1)
	sc.ext = growF64(sc.ext, m)
	sc.diag = growF64(sc.diag, m)
	bOff, ext, diag := sc.bOff, sc.ext, sc.diag
	bOff[0] = 0
	nnz := int64(0)
	for i, sv := range states {
		s := int(sv)
		x, self := 1.0, 0.0
		for e := c.off[s]; e < c.off[s+1]; e++ {
			switch t := c.succ[e]; {
			case int(t) == s:
				self += prob.At(e)
			case comp[t] == b:
				nnz++
			default:
				x += prob.At(e) * h[t]
			}
		}
		d := 1 - self
		if d <= 0 {
			return fmt.Errorf("markov: singular hitting-time system at state %d (self-loop mass %g)", s, self)
		}
		ext[i], diag[i] = x, d
		bOff[i+1] = nnz
	}
	sc.bTo = growI32(sc.bTo, int(nnz))
	sc.bP = growF64(sc.bP, int(nnz))
	bTo, bP := sc.bTo, sc.bP
	at := int64(0)
	for _, sv := range states {
		s := int(sv)
		for e := c.off[s]; e < c.off[s+1]; e++ {
			if t := c.succ[e]; int(t) != s && comp[t] == b {
				bTo[at] = local[t]
				bP[at] = prob.At(e)
				at++
			}
		}
	}

	sc.x = growF64(sc.x, m)
	x := sc.x
	for i := range x {
		x[i] = 0
	}
	// residual returns the largest |ext + Σ P x - diag·x| over [lo, hi).
	residual := func(lo, hi int) float64 {
		r := 0.0
		for i := lo; i < hi; i++ {
			v := ext[i]
			for k := bOff[i]; k < bOff[i+1]; k++ {
				v += bP[k] * x[bTo[k]]
			}
			if d := math.Abs(v - diag[i]*x[i]); d > r {
				r = d
			}
		}
		return r
	}
	if m < parallelBlockMin {
		// Pure sequential Gauss–Seidel: every update reads the freshest
		// values, converging roughly twice as fast as the colored scheme.
		// The iteration is monotone non-decreasing from x = 0, so sweeps
		// run untracked in batches of gsCheckEvery, with convergence
		// (delta, then residual) probed only on the batch's last sweep.
		for iter := 0; iter < gsMaxIter; iter += gsCheckEvery {
			for batch := 1; batch < gsCheckEvery; batch++ {
				for i := 0; i < m; i++ {
					v := ext[i]
					for k := bOff[i]; k < bOff[i+1]; k++ {
						v += bP[k] * x[bTo[k]]
					}
					x[i] = v / diag[i]
				}
			}
			delta, amax := 0.0, 0.0
			for i := 0; i < m; i++ {
				v := ext[i]
				for k := bOff[i]; k < bOff[i+1]; k++ {
					v += bP[k] * x[bTo[k]]
				}
				v /= diag[i]
				if d := math.Abs(v - x[i]); d > delta {
					delta = d
				}
				if a := math.Abs(v); a > amax {
					amax = a
				}
				x[i] = v
			}
			scale := math.Max(1, amax)
			if delta <= gsDeltaTol*scale {
				if r := residual(0, m); r <= gsResidTol*scale {
					for i, sv := range states {
						h[sv] = x[i]
					}
					observeGS(c.observer(), m, "gs", iter+gsCheckEvery, r)
					return nil
				}
			}
		}
		return fmt.Errorf("markov: Gauss–Seidel block of %d states did not converge within %d sweeps", m, gsMaxIter)
	}

	// Large block: red-black scheme. The choice depends only on the block
	// size — never on the worker count — so the iterates (and the result)
	// are identical whether the sweeps run serially or on the pool.
	sc.snap = growF64(sc.snap, m)
	snap := sc.snap
	half := (m + 1) / 2
	par := workers > 1
	// phase updates the color range [colorLo, colorHi) without a per-edge
	// color test: every neighbor is read from x, which still holds the
	// range's pre-phase values and the other color's fresh ones, while
	// the new values are staged in snap and copied back once the whole
	// range is done. Returns the max update delta and max |x| of the range.
	phase := func(colorLo, colorHi int) (float64, float64) {
		update := func(lo, hi int) (float64, float64) {
			delta, amax := 0.0, 0.0
			for i := lo; i < hi; i++ {
				v := ext[i]
				for k := bOff[i]; k < bOff[i+1]; k++ {
					v += bP[k] * x[bTo[k]]
				}
				v /= diag[i]
				if d := math.Abs(v - x[i]); d > delta {
					delta = d
				}
				if a := math.Abs(v); a > amax {
					amax = a
				}
				snap[i] = v
			}
			return delta, amax
		}
		var delta, amax float64
		if par {
			var mu sync.Mutex
			statespace.ForRanges(colorHi-colorLo, workers, gsGrain, func(lo, hi int) error {
				d, a := update(colorLo+lo, colorLo+hi)
				mu.Lock()
				if d > delta {
					delta = d
				}
				if a > amax {
					amax = a
				}
				mu.Unlock()
				return nil
			})
		} else {
			delta, amax = update(colorLo, colorHi)
		}
		copy(x[colorLo:colorHi], snap[colorLo:colorHi])
		return delta, amax
	}
	parResidual := func() float64 {
		var (
			mu sync.Mutex
			r  float64
		)
		statespace.ForRanges(m, workers, gsGrain, func(lo, hi int) error {
			d := residual(lo, hi)
			mu.Lock()
			if d > r {
				r = d
			}
			mu.Unlock()
			return nil
		})
		return r
	}
	for iter := 0; iter < gsMaxIter; iter++ {
		d1, a1 := phase(0, half)
		d2, a2 := phase(half, m)
		delta, scale := math.Max(d1, d2), math.Max(1, math.Max(a1, a2))
		if delta <= gsDeltaTol*scale {
			if r := parResidual(); r <= gsResidTol*scale {
				for i, sv := range states {
					h[sv] = x[i]
				}
				observeGS(c.observer(), m, "gs-rb", iter+1, r)
				return nil
			}
		}
	}
	return fmt.Errorf("markov: Gauss–Seidel block of %d states did not converge within %d sweeps", m, gsMaxIter)
}

// gaussSolve solves the augmented system [A | b] (m rows of m+1 columns)
// in place by Gaussian elimination with partial pivoting, writing the
// solution into sol (len m, caller-provided so block solves can reuse
// scratch).
func gaussSolve(a [][]float64, sol []float64) error {
	m := len(a)
	for col := 0; col < m; col++ {
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return fmt.Errorf("markov: singular hitting-time system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		pr := a[col][col:]
		inv := 1 / pr[0]
		for r := col + 1; r < m; r++ {
			rr := a[r][col : m+1]
			f := rr[0] * inv
			if f == 0 {
				continue
			}
			for k, pv := range pr {
				rr[k] -= f * pv
			}
		}
	}
	for i := m - 1; i >= 0; i-- {
		v := a[i][m]
		for k := i + 1; k < m; k++ {
			v -= a[i][k] * sol[k]
		}
		sol[i] = v / a[i][i]
	}
	return nil
}

// hittingTimesDense is the pre-condensation whole-system dense solver,
// kept as the parity oracle the sparse SCC solver is pinned against in
// tests. It densifies the full transient system ((I-Q)h = 1) regardless
// of size — O(m²) memory, O(m³) time — so it is only usable on small
// chains.
func (c *Chain) hittingTimesDense(target []bool) ([]float64, error) {
	if len(target) != c.n {
		return nil, fmt.Errorf("markov: target length %d != states %d", len(target), c.n)
	}
	probOne := c.ReachesWithProbOne(target)
	idx := make([]int, c.n)
	var transient []int
	for s := 0; s < c.n; s++ {
		idx[s] = -1
		if !target[s] && probOne[s] {
			idx[s] = len(transient)
			transient = append(transient, s)
		}
	}
	h := make([]float64, c.n)
	for s := 0; s < c.n; s++ {
		if !probOne[s] {
			h[s] = math.Inf(1)
		}
	}
	m := len(transient)
	if m == 0 {
		return h, nil
	}
	a := make([][]float64, m)
	for i, s := range transient {
		row := make([]float64, m+1)
		row[i] = 1
		row[m] = 1
		for e := c.off[s]; e < c.off[s+1]; e++ {
			if j := idx[c.succ[e]]; j >= 0 {
				row[j] -= c.prob.At(e)
			}
		}
		a[i] = row
	}
	sol := make([]float64, m)
	if err := gaussSolve(a, sol); err != nil {
		return nil, err
	}
	for i, s := range transient {
		h[s] = sol[i]
	}
	return h, nil
}
