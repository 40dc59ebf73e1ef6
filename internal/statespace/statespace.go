// Package statespace builds the explored transition system of an algorithm
// under a scheduler policy exactly once, as a compact weighted CSR
// (compressed-sparse-row) graph shared by every downstream analysis: the
// exhaustive checker consumes the unweighted successor view, the exact
// Markov analysis consumes the probability-weighted view of the same
// built-once space.
//
// Exploration is embarrassingly parallel: configurations are identified
// with dense mixed-radix indexes (protocol.Encoder), so index ranges are
// explored independently by a worker pool and stitched deterministically.
// Successor indexes are computed by delta re-encoding (changing process p
// from state a to b moves the index by (b-a)*Weight(p)), so no successor
// configuration is ever materialized; activation subsets are enumerated as
// the policy's bitmasks (scheduler.Policy.SubsetMasks, cached per
// enabled-set size), so no per-configuration subset slices are allocated.
// The index also orders each row: under the central, distributed and
// synchronous daemons a row is emitted already sorted by target, with no
// sort or merge (exploreState). The result is identical — including
// per-row probability sums, which accumulate in the same order — to the
// reference single-threaded enumeration in BuildReference.
package statespace

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// DefaultMaxStates caps the configuration space when Options.MaxStates is
// zero. It matches the historical checker default so that capped analyses
// fail on the same instances they always failed on.
const DefaultMaxStates = 1 << 21

// IndexLimit is the largest configuration space the engine can represent
// at all: state indexes are int32. Analyses that no longer have a
// solver-imposed ceiling (the sparse hitting-time solver scales past 10^6
// transient states) pass this as MaxStates to explore everything the
// index width allows.
const IndexLimit = math.MaxInt32

// Options tunes Build.
type Options struct {
	// MaxStates caps the configuration space (0 means DefaultMaxStates).
	MaxStates int64
	// Workers sets the exploration worker-pool size (0 means
	// runtime.NumCPU()). The result is identical for every worker count.
	Workers int
	// Obs receives exploration metrics and progress events (nil falls back
	// to obs.Default(); both nil disables instrumentation). Observability
	// never changes the built space: events and counters are side channels
	// only.
	Obs *obs.Observer
}

// StateCap resolves the MaxStates option to its effective value, shared by
// every exploration path (Build, BuildFromContext, the checker's fault-ball
// enumeration): 0 means DefaultMaxStates, and values beyond the int32
// state-id range clamp to IndexLimit. The cap is inclusive on discovered
// states: a region of exactly StateCap(m) states builds, and discovering
// one more fails.
func StateCap(maxStates int64) int64 {
	if maxStates <= 0 {
		return DefaultMaxStates
	}
	if maxStates > IndexLimit {
		return IndexLimit
	}
	return maxStates
}

// resolveWorkers resolves a worker-pool option: 0 means runtime.NumCPU(),
// and the pool never exceeds limit (the number of parallel work items).
func resolveWorkers(workers, limit int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > limit {
		workers = limit
	}
	return workers
}

// Space is an explored transition system: a set of configurations closed
// under successors, indexed by dense local state ids. The successors of s
// — deduplicated, sorted ascending, with the transition probabilities of
// the policy's randomized scheduler (Definition 6: uniform over the
// policy's activation subsets) — are the CSR row Succ(s), with their
// probabilities at the same CSR positions of Probs (palette-coded; see
// probs.go). States with no enabled process have empty rows (terminal;
// the Markov view treats them as absorbing).
//
// Build explores the full index range, where the local id of a
// configuration is its mixed-radix index under Enc. BuildFromContext and the
// frontier Builder explore the forward closure of a seed set — a fault
// ball, the closure of L — whose local ids are the discovered states in
// ascending-global order, tied back to the index range by a Dedup table.
// Every analysis runs over either unchanged, on local ids.
//
// A sealed space never changes: its CSR arrays and Legit are written once,
// by the engine that built or loaded it, and read-only afterwards. The
// passes every analysis shares are therefore computed on first use and
// memoized on the space — the predecessor view (Reverse), the backward
// distances to L (LegitDistances) and the condensation of the illegitimate
// subgraph (IllegitSCC) — so the checker, the Markov analysis and the
// k-fault verdicts of one space pay for each pass once. Callers must not
// modify Legit or the CSR of a space after it is built.
type Space struct {
	Alg    protocol.Algorithm
	Pol    scheduler.Policy
	Enc    *protocol.Encoder
	States int
	Legit  []bool // Legit[s]: state s is legitimate
	// Workers is the resolved exploration worker-pool size, reused as the
	// default pool size of the analyses run over this space.
	Workers int

	// table maps global indexes to local ids; nil means the full index
	// range, where the two coincide.
	table *Dedup

	off   []int64 // row offsets, len States+1
	succ  []int32 // successor local ids, sorted per row
	probs Probs   // transition probabilities aligned with succ

	// Obs is the observer the space was built or loaded with (nil means
	// obs.Default()). Analyses of the space that take no options of their
	// own, such as the hitting-time solver, report to it.
	Obs *obs.Observer

	// mapped is non-nil when the CSR and Globals arrays alias an external
	// mapped buffer (Map); see mapped.go for the Close/Acquire lifecycle.
	mapped *mapping

	revOnce sync.Once
	rev     Reverse

	distOnce sync.Once
	dist     []int32 // LegitDistances

	sccOnce sync.Once
	scc     Condensation // IllegitSCC
}

// SubSpace is the former name of a Space explored from a seed set. It
// remains as an alias for code written against it.
type SubSpace = Space

// TransitionSystem is the former name of the analyses' view of a Space.
// It remains as an alias for code written against it.
type TransitionSystem = *Space

// Succ returns the deduplicated successor state indexes of s, sorted
// ascending. The slice aliases the space; callers must not modify it.
func (sp *Space) Succ(s int) []int32 { return sp.succ[sp.off[s]:sp.off[s+1]] }

// IsTerminal reports whether state s has no successors (no enabled
// process).
func (sp *Space) IsTerminal(s int) bool { return sp.off[s] == sp.off[s+1] }

// Edges returns the total number of stored transitions.
func (sp *Space) Edges() int64 { return int64(len(sp.succ)) }

// CSR exposes the raw forward CSR triple (row offsets, successors,
// transition probabilities) so analysis layers can alias the explored
// space without copying. Callers must not modify the arrays.
func (sp *Space) CSR() (off []int64, succ []int32, prob Probs) {
	return sp.off, sp.succ, sp.probs
}

// Reverse returns the predecessor view of the space, built on first use
// and cached, so the checker's reachability passes and the Markov analyses
// of the same space share one reverse CSR. The view is space-relative:
// predecessors outside an explored closure do not exist here, which is
// exactly what forward-looking analyses need, since the space is closed
// under successors.
func (sp *Space) Reverse() Reverse {
	sp.revOnce.Do(func() {
		sp.rev = ReverseCSR(sp.States, sp.off, sp.succ, sp.Workers)
	})
	return sp.rev
}

// LegitDistances returns, per state, the length of its shortest path into
// the legitimate set (0 on L, -1 where L is unreachable): the backward BFS
// from Legit over Reverse(), computed on first use and cached. Possible
// convergence, the convergence radius, the worst-case witness and the
// Markov analysis' probability-1 test all read this one vector. The slice
// is shared; callers must not modify it.
func (sp *Space) LegitDistances() []int32 {
	sp.distOnce.Do(func() {
		sp.dist = sp.Reverse().BackwardBFS(sp.Legit, nil, sp.Workers)
	})
	return sp.dist
}

// IllegitSCC returns the condensation of the subgraph induced by the
// illegitimate states (component ids -1 on legitimate states, members
// bucketed per component in ascending state order), computed on first use
// and cached. Certain convergence, the fair-lasso search, the Gouda and
// k-fault divergence scans and the hitting-time solve for L all walk its
// buckets. The slices are shared; callers must not modify them.
func (sp *Space) IllegitSCC() Condensation {
	sp.sccOnce.Do(func() {
		include := make([]bool, sp.States)
		for s, l := range sp.Legit {
			include[s] = !l
		}
		sp.scc = SCC(sp.States, sp.off, sp.succ, include)
	})
	return sp.scc
}

// GlobalIndex returns the global (mixed-radix) index of local state s.
func (sp *Space) GlobalIndex(s int) int64 {
	if sp.table == nil {
		return int64(s)
	}
	return sp.table.Globals()[s]
}

// Globals returns the global indexes of all states in local-id (=
// ascending global) order, or nil for the full index range. The slice
// aliases the space.
func (sp *Space) Globals() []int64 {
	if sp.table == nil {
		return nil
	}
	return sp.table.Globals()
}

// LocalIndex returns the local id of the global index g, or -1 when g is
// not a state of the space.
func (sp *Space) LocalIndex(g int64) int32 {
	if sp.table == nil {
		if g < 0 || g >= int64(sp.States) {
			return -1
		}
		return int32(g)
	}
	return sp.table.Lookup(g)
}

// Config decodes state s into a fresh configuration.
func (sp *Space) Config(s int) protocol.Configuration {
	return sp.Enc.Decode(sp.GlobalIndex(s), nil)
}

// ConfigInto decodes state s into dst (allocating only when dst is nil or
// too short) and returns it, so sweeping analyses reuse one buffer.
func (sp *Space) ConfigInto(s int, dst protocol.Configuration) protocol.Configuration {
	return sp.Enc.Decode(sp.GlobalIndex(s), dst)
}

// StateOf returns the local id of cfg. ok is false when cfg is not a
// state of the space, which happens only for an explored closure.
func (sp *Space) StateOf(cfg protocol.Configuration) (int32, bool) {
	l := sp.LocalIndex(sp.Enc.Encode(cfg))
	return l, l >= 0
}

// Algorithm returns the explored algorithm.
func (sp *Space) Algorithm() protocol.Algorithm { return sp.Alg }

// Policy returns the policy the space was explored under.
func (sp *Space) Policy() scheduler.Policy { return sp.Pol }

// NumStates returns the number of states of the space.
func (sp *Space) NumStates() int { return sp.States }

// TotalConfigs returns the size of the full index range the space lives
// in; NumStates/TotalConfigs is the explored fraction of a closure.
func (sp *Space) TotalConfigs() int64 { return sp.Enc.Total() }

// LegitSet returns the legitimacy vector. The slice aliases the space;
// callers must not modify it.
func (sp *Space) LegitSet() []bool { return sp.Legit }

// PoolWorkers returns the worker-pool size analyses over the space run on
// by default: the resolved exploration pool size.
func (sp *Space) PoolWorkers() int { return sp.Workers }

// edge is one pre-merge transition of the row under construction. Targets
// are global configuration indexes (int64) so the same explorer serves both
// the full-range engine (whose spaces fit int32 state indexes) and the
// frontier engine (whose subspaces may live inside index ranges far beyond
// int32 — only *discovered* states need dense local ids there).
type edge struct {
	to int64
	p  float64
}

// chunk is the CSR fragment of one contiguous state range: exact-size
// copies of its successors and of their probabilities, coded into the
// fragment's own palette. The range's degrees go straight to the space's
// offsets.
type chunk struct {
	succ []int32
	prob Probs
}

// Build explores a's configuration space under pol with a worker pool and
// returns the shared transition system. The result is deterministic and
// independent of Options.Workers.
func Build(a protocol.Algorithm, pol scheduler.Policy, opt Options) (*Space, error) {
	return BuildContext(context.Background(), a, pol, opt)
}

// BuildContext is Build with cooperative cancellation: ctx is checked at
// chunk granularity, so a cancelled build stops claiming work and returns
// an error wrapping ctx.Err() in bounded time, producing no space. A
// successful build is unaffected by ctx.
func BuildContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt Options) (*Space, error) {
	// The cap is inclusive: a space of exactly maxStates configurations
	// builds (NewEncoder rejects only totals strictly beyond it).
	maxStates := StateCap(opt.MaxStates)
	enc, err := protocol.NewEncoder(a, maxStates)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	if enc.Total() > math.MaxInt32 {
		return nil, fmt.Errorf("statespace: %d configurations exceed the int32 index range", enc.Total())
	}
	total := int(enc.Total())
	workers := resolveWorkers(opt.Workers, total)
	sp := &Space{
		Alg:     a,
		Pol:     pol,
		Enc:     enc,
		States:  total,
		Legit:   make([]bool, total),
		Workers: workers,
		Obs:     opt.Obs,
		off:     make([]int64, total+1),
	}
	// Small chunks keep workers balanced (states differ wildly in enabled
	// count) and bound each explorer's reusable buffers, which grow to the
	// largest fragment it explores.
	const chunkSize = 1 << 10
	numChunks := (total + chunkSize - 1) / chunkSize
	chunks := make([]chunk, numChunks)

	// At most one explorer per worker, handed from chunk to chunk through
	// a free list (a sync.Pool could drop one, grown buffers and all, at
	// any GC). Its capacity is the worker count, so a put never blocks.
	free := make(chan *explorer, workers)
	// Instrumentation side channel: cumulative done/edge counts feed the
	// registry and a coarse build.progress event at milestone crossings
	// (chunk arrival order is scheduling-dependent, so the milestone —
	// not the event order — is the contract). The built space is
	// untouched.
	o := obs.Or(opt.Obs)
	var doneStates, doneEdges atomic.Int64
	const progressEvery = 1 << 20
	err = ForRanges(total, workers, chunkSize, func(lo, hi int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("statespace: exploration canceled: %w", err)
		}
		var ex *explorer
		select {
		case ex = <-free:
		default:
			ex = newExplorer(a, pol, enc)
		}
		ck, err := ex.exploreRange(lo, hi, sp.Legit, sp.off[lo+1:hi+1])
		free <- ex
		if err != nil {
			return err
		}
		chunks[lo/chunkSize] = ck
		if o.On() {
			e := doneEdges.Add(int64(len(ck.succ)))
			d := doneStates.Add(int64(hi - lo))
			if d/progressEvery != (d-int64(hi-lo))/progressEvery || d == int64(total) {
				o.Emit("build.progress", obs.BuildProgress{Done: d, Total: int64(total), Edges: e})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stitch the fragments into one CSR. The offsets hold each state's
	// degree; their prefix sum places every fragment, which is copied to
	// its rows with its codes remapped to the merged palette and then
	// dropped, so each edge is written twice in all.
	for s := range total {
		sp.off[s+1] += sp.off[s]
	}
	edges := sp.off[total]
	frags := make([]Probs, numChunks)
	for c := range chunks {
		frags[c] = chunks[c].prob
	}
	pal, coded := unionPalette(frags)
	sp.succ = make([]int32, edges)
	sp.probs = newProbs(pal, coded, edges)
	_ = ForRanges(numChunks, workers, 1, func(c, _ int) error {
		ck := &chunks[c]
		at := sp.off[c*chunkSize]
		copy(sp.succ[at:], ck.succ)
		m := remapTo(pal, ck.prob)
		sp.probs.copyRows(at, ck.prob, 0, int64(len(ck.succ)), &m)
		*ck, frags[c] = chunk{}, Probs{}
		return nil
	})
	o.Counter("build.states").Add(int64(total))
	o.Counter("build.edges").Add(edges)
	return sp, nil
}

// explorer holds one worker's reusable scratch state. It is shared by the
// full-range engine (Build) and the frontier engine (BuildFromContext): both
// feed it one decoded configuration at a time and read the merged successor
// row (global targets, global probabilities) from outTo/outProb after each
// exploreState call.
type explorer struct {
	alg    protocol.Algorithm
	pol    scheduler.Policy
	enc    *protocol.Encoder
	det    protocol.Deterministic // non-nil: allocation-free outcome fast path
	n      int
	counts []int      // per-process state-domain sizes, for outcome validation
	masks  [][]uint64 // subset masks per enabled-set size, filled on first use
	shapes []rowShape // the shape of masks[k], classified with it

	cfg      protocol.Configuration
	enabled  []int
	actions  []int
	outDelta [][]int64 // per enabled position: index deltas of the outcomes, sorted stably
	outProb  [][]float64
	optDelta [][]int64 // distributed rows: outDelta with "not activated" (delta 0) inserted
	optProb  [][]float64
	stride   []int    // odometerRow: rank weight of each position's option index
	prefix   []prefix // odometerRow: running sums of the positions below and at each one
	step     []int64  // distributedDetRow: |delta| of each position
	actPos   []int    // activated positions of the current mask
	odo      []int    // odometer over the activated positions' outcomes
	row      []edge
	tmp      []edge // radixSort's second buffer
	// ordered and merged count the rows exploreState emitted in order and
	// through the fallback merge; tests read them.
	ordered, merged int
	// rangeSucc and rangeProb accumulate exploreRange's fragment; they
	// are reused across ranges, and the fragment is their exact-size copy.
	rangeSucc []int32
	rangeProb probBuf

	outTo []int64   // merged successor row: global target indexes, ascending
	outP  []float64 // merged transition probabilities aligned with outTo
}

func newExplorer(alg protocol.Algorithm, pol scheduler.Policy, enc *protocol.Encoder) *explorer {
	n := alg.Graph().N()
	ex := &explorer{
		alg:      alg,
		pol:      pol,
		enc:      enc,
		n:        n,
		counts:   make([]int, n),
		masks:    make([][]uint64, n+1),
		shapes:   make([]rowShape, n+1),
		cfg:      make(protocol.Configuration, n),
		outDelta: make([][]int64, n),
		outProb:  make([][]float64, n),
		optDelta: make([][]int64, n),
		optProb:  make([][]float64, n),
	}
	for p := 0; p < n; p++ {
		ex.counts[p] = alg.StateCount(p)
	}
	if det, ok := alg.(protocol.Deterministic); ok {
		ex.det = det
	}
	return ex
}

func (ex *explorer) subsetMasks() ([]uint64, rowShape) {
	k := len(ex.enabled)
	if ex.masks[k] == nil {
		ex.masks[k] = ex.pol.SubsetMasks(k)
		ex.shapes[k] = maskShape(ex.masks[k], k)
	}
	return ex.masks[k], ex.shapes[k]
}

// rowShape names the mask lists whose rows exploreState emits in target
// order: the three daemons' lists, recognized by their shape alone.
type rowShape uint8

const (
	shapeOther       rowShape = iota // any other list: enumerate and merge
	shapeCentral                     // the k singletons, in any order
	shapeDistributed                 // all 2^k-1 non-empty masks, in any order
	shapeSynchronous                 // the one full mask
)

// maskShape classifies the mask list of a k-element enabled set.
func maskShape(masks []uint64, k int) rowShape {
	full := uint64(1)<<uint(k) - 1
	switch {
	case len(masks) == 1 && masks[0] == full:
		return shapeSynchronous
	case len(masks) == k:
		seen := uint64(0)
		for _, m := range masks {
			if bits.OnesCount64(m) != 1 || seen&m != 0 {
				return shapeOther
			}
			seen |= m
		}
		if seen == full {
			return shapeCentral
		}
	case k < 31 && len(masks) == 1<<k-1:
		seen := make([]bool, len(masks)+1)
		for _, m := range masks {
			if m == 0 || m > full || seen[m] {
				return shapeOther
			}
			seen[m] = true
		}
		return shapeDistributed
	}
	return shapeOther
}

// exploreRange explores states [lo, hi) into a fresh CSR fragment,
// recording legitimacy into legit and each state's degree into deg. The
// range's configurations are decoded once at lo and then advanced by
// odometer increments, so the mixed-radix divisions of Decode are paid
// once per range instead of once per state.
func (ex *explorer) exploreRange(lo, hi int, legit []bool, deg []int64) (chunk, error) {
	ex.rangeSucc = ex.rangeSucc[:0]
	ex.rangeProb.reset()
	for s := lo; s < hi; s++ {
		if s == lo {
			ex.cfg = ex.enc.Decode(int64(s), ex.cfg)
		} else {
			ex.enc.DecodeNext(ex.cfg)
		}
		isLegit, err := ex.exploreState(int64(s))
		if err != nil {
			return chunk{}, err
		}
		legit[s] = isLegit
		ex.rangeSucc = reserve(ex.rangeSucc, len(ex.outTo))
		ex.rangeProb.reserve(len(ex.outTo))
		for i, t := range ex.outTo {
			ex.rangeSucc = append(ex.rangeSucc, int32(t))
			ex.rangeProb.add(ex.outP[i])
		}
		deg[s-lo] = int64(len(ex.outTo))
	}
	return chunk{succ: slices.Clone(ex.rangeSucc), prob: ex.rangeProb.frag()}, nil
}

// exploreState computes the merged successor row of the configuration the
// caller has decoded into ex.cfg, whose global index is g, leaving global
// targets and probabilities in ex.outTo/ex.outP, and reports its
// legitimacy. Outcome states are validated against the process domains so
// a misbehaving Algorithm yields a clean error instead of an aliased state
// index.
//
// The row comes out in ascending target order without a sort for the
// three daemons' mask lists (orderedRow). This rests on one property of
// the mixed-radix index: a change at enabled position i moves it by a
// nonzero multiple of Weight(p_i), while all changes below i together move
// it by at most Weight(p_i)-1 (a position not activated moves it by 0).
// So of two successor entries, the highest position where their deltas
// differ decides which target is larger, and two entries share a target
// only when their deltas agree position by position. Rows where one
// position has two options of equal delta — a stay outcome under the
// distributed daemon (herman, -transform), where it ties "not
// activated", or an Outcomes list repeating a state — and rows of any
// other mask list are enumerated and merged instead (mergeRow).
func (ex *explorer) exploreState(g int64) (bool, error) {
	legit := ex.alg.Legitimate(ex.cfg)
	ex.outTo = ex.outTo[:0]
	ex.outP = ex.outP[:0]

	// Enabled processes and their outcome distributions, computed once per
	// state (every activation subset reuses them): outcome j of enabled
	// position i moves the state index by outDelta[i][j] with probability
	// outProb[i][j].
	ex.enabled = ex.enabled[:0]
	ex.actions = ex.actions[:0]
	for p := 0; p < ex.n; p++ {
		if act := ex.alg.EnabledAction(ex.cfg, p); act != protocol.Disabled {
			ex.enabled = append(ex.enabled, p)
			ex.actions = append(ex.actions, act)
		}
	}
	if len(ex.enabled) == 0 {
		return legit, nil // terminal: empty row, absorbing in the Markov view
	}
	deterministic := true
	for i, p := range ex.enabled {
		w := ex.enc.Weight(p)
		ex.outDelta[i] = ex.outDelta[i][:0]
		ex.outProb[i] = ex.outProb[i][:0]
		if ex.det != nil {
			next := ex.det.DeterministicExecute(ex.cfg, p, ex.actions[i])
			if next < 0 || next >= ex.counts[p] {
				return false, fmt.Errorf("statespace: %s: outcome state %d out of domain [0,%d) at p=%d in %v",
					ex.alg.Name(), next, ex.counts[p], p, ex.cfg)
			}
			ex.outDelta[i] = append(ex.outDelta[i], int64(next-ex.cfg[p])*w)
			ex.outProb[i] = append(ex.outProb[i], 1)
			continue
		}
		outs := ex.alg.Outcomes(ex.cfg, p, ex.actions[i])
		if len(outs) == 0 {
			return false, fmt.Errorf("statespace: %s: no outcomes for enabled action %s at p=%d in %v",
				ex.alg.Name(), ex.alg.ActionName(ex.actions[i]), p, ex.cfg)
		}
		for _, o := range outs {
			if o.State < 0 || o.State >= ex.counts[p] {
				return false, fmt.Errorf("statespace: %s: outcome state %d out of domain [0,%d) at p=%d in %v",
					ex.alg.Name(), o.State, ex.counts[p], p, ex.cfg)
			}
			ex.outDelta[i] = append(ex.outDelta[i], int64(o.State-ex.cfg[p])*w)
			ex.outProb[i] = append(ex.outProb[i], o.Prob)
		}
		if len(outs) > 1 {
			deterministic = false
			sortOutcomes(ex.outDelta[i], ex.outProb[i])
		}
	}

	masks, shape := ex.subsetMasks()
	w := 1 / float64(len(masks))
	if ex.orderedRow(g, masks, shape, w, deterministic) {
		ex.ordered++
		return legit, nil
	}
	ex.merged++
	ex.row = ex.row[:0]
	for _, mask := range masks {
		if deterministic {
			// Single joint outcome: sum the activated deltas directly.
			delta := int64(0)
			for mask != 0 {
				i := bits.TrailingZeros64(mask)
				mask &= mask - 1
				delta += ex.outDelta[i][0]
			}
			ex.row = append(ex.row, edge{to: g + delta, p: w})
			continue
		}
		ex.enumerateMask(g, mask, w)
	}
	ex.mergeRow()
	return legit, nil
}

// sortOutcomes sorts one position's outcomes by delta, stably. No merged
// sum moves: two entries of a row share a target only when their deltas
// agree position by position, and the stable sort keeps equal deltas in
// enumeration order.
func sortOutcomes(delta []int64, prob []float64) {
	for i := 1; i < len(delta); i++ {
		d, p := delta[i], prob[i]
		j := i
		for ; j > 0 && delta[j-1] > d; j-- {
			delta[j], prob[j] = delta[j-1], prob[j-1]
		}
		delta[j], prob[j] = d, p
	}
}

// orderedRow emits the current state's merged row into ex.outTo/ex.outP in
// ascending target order, bit-identical to the enumerate-and-merge path:
// an entry's probability is w times its outcome probabilities multiplied
// in ascending position order, as enumerateMask multiplies them, and
// entries sharing a target sum in enumeration order. It reports false,
// emitting nothing, for the rows that path must take (see exploreState).
func (ex *explorer) orderedRow(g int64, masks []uint64, shape rowShape, w float64, det bool) bool {
	switch shape {
	case shapeCentral:
		return ex.centralRow(g, masks, w, det)
	case shapeDistributed:
		if det {
			return ex.distributedDetRow(g, w)
		}
		return ex.odometerRow(g, w, true)
	case shapeSynchronous:
		if det {
			delta := int64(0)
			for i := range ex.enabled {
				delta += ex.outDelta[i][0]
			}
			ex.outTo = append(ex.outTo, g+delta)
			ex.outP = append(ex.outP, w)
			return true
		}
		return ex.odometerRow(g, w, false)
	}
	return false
}

// tied reports whether some enabled position has two outcomes of equal
// delta, counting a pair of zero deltas only when zeros is set.
func (ex *explorer) tied(zeros bool) bool {
	for i := range ex.enabled {
		ds := ex.outDelta[i]
		for j := 1; j < len(ds); j++ {
			if ds[j] == ds[j-1] && (zeros || ds[j] != 0) {
				return true
			}
		}
	}
	return false
}

// centralRow emits a central row (one entry per outcome of each enabled
// position) in one pass from the top position down: negative-delta
// outcomes fill the row from the front and positive-delta ones from the
// back, each position's ascending, so the negatives come out top position
// first and the positives bottom position first. The slots left between
// them become one self-loop summing the zero-delta outcomes in
// enumeration order (masks in list order).
func (ex *explorer) centralRow(g int64, masks []uint64, w float64, det bool) bool {
	if !det && ex.tied(false) {
		return false
	}
	weight := func(i, j int) float64 {
		if det {
			return w
		}
		return w * ex.outProb[i][j]
	}
	n := 0
	for i := range ex.enabled {
		n += len(ex.outDelta[i])
	}
	to := slices.Grow(ex.outTo, n)[:n]
	out := slices.Grow(ex.outP, n)[:n]
	lo, hi := 0, n
	for i := len(ex.enabled) - 1; i >= 0; i-- {
		ds := ex.outDelta[i]
		for j := 0; j < len(ds) && ds[j] < 0; j++ {
			to[lo], out[lo] = g+ds[j], weight(i, j)
			lo++
		}
		for j := len(ds) - 1; j >= 0 && ds[j] > 0; j-- {
			hi--
			to[hi], out[hi] = g+ds[j], weight(i, j)
		}
	}
	if hi > lo {
		to[lo], out[lo] = g, 0 // 0+p is p exactly: the sum starts as the merge's does
		for _, m := range masks {
			i := bits.TrailingZeros64(m)
			for j, d := range ex.outDelta[i] {
				if d == 0 {
					out[lo] += weight(i, j)
				}
			}
		}
		copy(out[lo+1:], out[hi:])
		n = lo + 1 + copy(to[lo+1:], to[hi:])
	}
	ex.outTo, ex.outP = to[:n], out[:n]
	return true
}

// distributedDetRow emits a deterministic distributed row: position i's
// options are "not activated" and its one outcome, so entry x of the
// order activates the positions in x XOR neg, where neg holds the
// positions with a negative delta, and its target is base plus the
// subset sum of |delta| over x (base: all negative deltas applied). x =
// neg activates nothing and is dropped. Every entry weighs w.
func (ex *explorer) distributedDetRow(g int64, w float64) bool {
	neg, base := 0, g
	ex.step = ex.step[:0]
	for i := range ex.enabled {
		d := ex.outDelta[i][0]
		if d == 0 {
			return false // a stay outcome ties "not activated"
		}
		if d < 0 {
			neg |= 1 << i
			base += d
			d = -d
		}
		ex.step = append(ex.step, d)
	}
	n := 1 << len(ex.enabled)
	to := slices.Grow(ex.outTo, n)[:n]
	to[0] = base
	for x := 1; x < n; x++ {
		to[x] = to[x&(x-1)] + ex.step[bits.TrailingZeros(uint(x))]
	}
	ex.outTo = slices.Delete(to, neg, neg+1)
	ex.outP = slices.Grow(ex.outP, n-1)[:n-1]
	for i := range ex.outP {
		ex.outP[i] = w
	}
	return true
}

// prefix holds odometerRow's running delta, probability product and rank
// over the positions up to one.
type prefix struct {
	delta int64
	p     float64
	rank  int
}

// odometerRow emits a synchronous row (each position's options are its
// outcomes) or, with idle set, a nondeterministic distributed one ("not
// activated", delta 0 and factor 1, joins each position's options). In
// target order the entries are an odometer over the options with the top
// position varying slowest, so an entry's rank is its option indexes read
// as a mixed-radix number. The odometer runs the other way round, bottom
// position slowest as in enumerateMask, so each entry's product extends
// the cached products of the positions below the one that moved, and
// writes every entry at its rank. The all-idle combination is skipped.
func (ex *explorer) odometerRow(g int64, w float64, idle bool) bool {
	if ex.tied(true) {
		return false
	}
	k := len(ex.enabled)
	opts, probs := ex.outDelta, ex.outProb
	ex.stride = ex.stride[:0]
	total, idleRank := 1, -1
	if idle {
		opts, probs, idleRank = ex.optDelta, ex.optProb, 0
	}
	for i := range k {
		if idle {
			ds := ex.outDelta[i]
			at := 0
			for at < len(ds) && ds[at] < 0 {
				at++
			}
			if at < len(ds) && ds[at] == 0 {
				return false // a stay outcome ties "not activated"
			}
			opts[i] = slices.Insert(append(opts[i][:0], ds...), at, 0)
			probs[i] = slices.Insert(append(probs[i][:0], ex.outProb[i]...), at, 1)
			idleRank += at * total
		}
		ex.stride = append(ex.stride, total)
		total *= len(opts[i])
	}
	n := total
	if idle {
		n--
	}
	to := slices.Grow(ex.outTo, n)[:n]
	out := slices.Grow(ex.outP, n)[:n]
	ex.odo = slices.Grow(ex.odo[:0], k)[:k]
	clear(ex.odo)
	pre := slices.Grow(ex.prefix[:0], k)[:k]
	for j := 0; j >= 0; {
		cur := prefix{p: w}
		if j > 0 {
			cur = pre[j-1]
		}
		for i := j; i < k; i++ {
			c := ex.odo[i]
			cur.delta += opts[i][c]
			cur.p *= probs[i][c]
			cur.rank += c * ex.stride[i]
			pre[i] = cur
		}
		if r := cur.rank; r != idleRank {
			if idle && r > idleRank {
				r--
			}
			to[r], out[r] = g+cur.delta, cur.p
		}
		for j = k - 1; j >= 0; j-- {
			ex.odo[j]++
			if ex.odo[j] < len(opts[j]) {
				break
			}
			ex.odo[j] = 0
		}
	}
	ex.outTo, ex.outP, ex.prefix = to, out, pre
	return true
}

// smallRow is the longest row mergeRow sorts by insertion; longer rows
// (the distributed daemon's up to 2^k-1 activation subsets) go through
// the radix sort, whose per-pass bucket scan short rows cannot amortize.
// Only the rows orderedRow turns down reach either sort.
const smallRow = 32

// mergeRow merges the duplicate targets of ex.row into ex.outTo/ex.outP:
// the fallback for the rows orderedRow cannot emit in order (a position
// with two options of equal delta, or a mask list of no daemon's shape).
// Both sorts are stable by target, so enumeration order is kept within a
// target and probability sums accumulate exactly as in BuildReference's
// sort.Stable merge (deterministic across worker counts).
func (ex *explorer) mergeRow() {
	row := ex.row
	if len(row) <= smallRow {
		for i := 1; i < len(row); i++ {
			e := row[i]
			j := i
			for ; j > 0 && row[j-1].to > e.to; j-- {
				row[j] = row[j-1]
			}
			row[j] = e
		}
	} else {
		row = ex.radixSort(row)
	}
	for i := 0; i < len(row); {
		to, p := row[i].to, row[i].p
		for i++; i < len(row) && row[i].to == to; i++ {
			p += row[i].p
		}
		ex.outTo = append(ex.outTo, to)
		ex.outP = append(ex.outP, p)
	}
}

// radixSort sorts row stably by target with a least-significant-digit
// radix sort on to - min(to), one byte per pass and only as many passes
// as the row's target span needs, ping-ponging between row and ex.tmp.
// It returns whichever of the two holds the sorted row.
func (ex *explorer) radixSort(row []edge) []edge {
	lo, hi := row[0].to, row[0].to
	for _, e := range row[1:] {
		lo = min(lo, e.to)
		hi = max(hi, e.to)
	}
	span := uint64(hi - lo) // targets are non-negative indexes: no overflow
	if cap(ex.tmp) < len(row) {
		ex.tmp = make([]edge, len(row))
	}
	src, dst := row, ex.tmp[:len(row)]
	for shift := uint(0); shift < 64 && span>>shift != 0; shift += 8 {
		var count [256]int32
		for _, e := range src {
			count[uint64(e.to-lo)>>shift&0xff]++
		}
		at := int32(0)
		for d, c := range count {
			count[d] = at
			at += c
		}
		for _, e := range src {
			d := uint64(e.to-lo) >> shift & 0xff
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// enumerateMask appends every joint outcome of the activation subset mask
// (an odometer over the activated positions' outcome lists, last position
// varying fastest) to the row under construction, each weighing w times
// its outcome probabilities multiplied in ascending position order — the
// products orderedRow reproduces. Only the rows orderedRow turns down are
// enumerated: a position with two options of equal delta, or a mask list
// of no daemon's shape.
func (ex *explorer) enumerateMask(g int64, mask uint64, w float64) {
	ex.actPos = ex.actPos[:0]
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		ex.actPos = append(ex.actPos, i)
	}
	ex.odo = ex.odo[:0]
	for range ex.actPos {
		ex.odo = append(ex.odo, 0)
	}
	for {
		delta, p := int64(0), w
		for j, i := range ex.actPos {
			delta += ex.outDelta[i][ex.odo[j]]
			p *= ex.outProb[i][ex.odo[j]]
		}
		ex.row = append(ex.row, edge{to: g + delta, p: p})
		j := len(ex.actPos) - 1
		for ; j >= 0; j-- {
			ex.odo[j]++
			if ex.odo[j] < len(ex.outDelta[ex.actPos[j]]) {
				break
			}
			ex.odo[j] = 0
		}
		if j < 0 {
			return
		}
	}
}
