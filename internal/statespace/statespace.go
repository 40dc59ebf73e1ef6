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
// configuration is ever materialized; activation subsets are position
// bitmasks derived from the daemon (a scheduler.Policy value), so no
// per-configuration subset slices are allocated. The index also orders
// each row: every row is emitted already sorted by target, entries that
// share a target added at its rank, with no sort or merge (exploreState).
// The result is identical — including per-row probability sums, which
// accumulate in the same order — to the reference single-threaded
// enumeration in BuildReference, which takes the policy's own mask list.
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
// ascending-global order, tied back to the index range by their sorted
// globals. Every analysis runs over either unchanged, on local ids.
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

	// globals lists each local id's global index, ascending; nil means
	// the full index range, where the two coincide.
	globals []int64

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
	if sp.globals == nil {
		return int64(s)
	}
	return sp.globals[s]
}

// Globals returns the global indexes of all states in local-id (=
// ascending global) order, or nil for the full index range. The slice
// aliases the space.
func (sp *Space) Globals() []int64 { return sp.globals }

// LocalIndex returns the local id of the global index g, or -1 when g is
// not a state of the space.
func (sp *Space) LocalIndex(g int64) int32 {
	if sp.globals == nil {
		if g < 0 || g >= int64(sp.States) {
			return -1
		}
		return int32(g)
	}
	if l, ok := slices.BinarySearch(sp.globals, g); ok {
		return int32(l)
	}
	return -1
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
	counts []int // per-process state-domain sizes, for outcome validation

	cfg     protocol.Configuration
	enabled []int
	actions []int
	opts    [][]option // per enabled position: its outcomes, sorted stably by delta
	act     [][]option // rankRow: the activated positions' opts, ascending
	odo     []int      // rankRow: odometer over act
	prefix  []option   // rankRow: running sums up to each position of act
	step    []int64    // distributedDetRow: |delta| of each position
	// rangeSucc and rangeProb accumulate exploreRange's fragment; they
	// are reused across ranges, and the fragment is their exact-size copy.
	rangeSucc []int32
	rangeProb probBuf

	outTo []int64   // merged successor row: global target indexes, ascending
	outP  []float64 // merged transition probabilities aligned with outTo
}

// option is one outcome of an enabled position: its index delta, its
// probability and, in rankRow, the rank offset of its delta group. As a
// running sum over the activated positions up to one, it is an entry's
// prefix.
type option struct {
	delta int64
	p     float64
	rank  int
}

func newExplorer(alg protocol.Algorithm, pol scheduler.Policy, enc *protocol.Encoder) *explorer {
	n := alg.Graph().N()
	ex := &explorer{
		alg:    alg,
		pol:    pol,
		enc:    enc,
		n:      n,
		counts: make([]int, n),
		cfg:    make(protocol.Configuration, n),
		opts:   make([][]option, n),
	}
	for p := 0; p < n; p++ {
		ex.counts[p] = alg.StateCount(p)
	}
	if det, ok := alg.(protocol.Deterministic); ok {
		ex.det = det
	}
	return ex
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
// The row comes out in ascending target order without a sort. This rests
// on one property of the mixed-radix index: a change at enabled position i
// moves it by a nonzero multiple of Weight(p_i), while all changes below i
// together move it by at most Weight(p_i)-1 (a position not activated
// moves it by 0). So of two successor entries, the highest position where
// their deltas differ decides which target is larger, and two entries
// share a target only when their deltas agree position by position. Each
// entry weighs w times its outcome probabilities multiplied in ascending
// position order, and entries sharing a target sum in the order
// BuildReference enumerates them (masks in the daemon's list order), so
// every row equals the reference's stable merge bit for bit.
func (ex *explorer) exploreState(g int64) (bool, error) {
	legit := ex.alg.Legitimate(ex.cfg)
	ex.outTo = ex.outTo[:0]
	ex.outP = ex.outP[:0]

	// Enabled processes and their outcome distributions, computed once per
	// state (every activation subset reuses them): outcome j of enabled
	// position i moves the state index by opts[i][j].delta with
	// probability opts[i][j].p.
	ex.enabled = ex.enabled[:0]
	ex.actions = ex.actions[:0]
	for p := 0; p < ex.n; p++ {
		if act := ex.alg.EnabledAction(ex.cfg, p); act != protocol.Disabled {
			ex.enabled = append(ex.enabled, p)
			ex.actions = append(ex.actions, act)
		}
	}
	k := len(ex.enabled)
	if k == 0 {
		return legit, nil // terminal: empty row, absorbing in the Markov view
	}
	if ex.pol == scheduler.DistributedPolicy && k > scheduler.DistributedLimit {
		return false, fmt.Errorf("statespace: %s: %d enabled processes exceed the distributed daemon's limit of %d",
			ex.alg.Name(), k, scheduler.DistributedLimit)
	}
	deterministic := true
	for i, p := range ex.enabled {
		w := ex.enc.Weight(p)
		opts := ex.opts[i][:0]
		if ex.det != nil {
			next := ex.det.DeterministicExecute(ex.cfg, p, ex.actions[i])
			if next < 0 || next >= ex.counts[p] {
				return false, fmt.Errorf("statespace: %s: outcome state %d out of domain [0,%d) at p=%d in %v",
					ex.alg.Name(), next, ex.counts[p], p, ex.cfg)
			}
			ex.opts[i] = append(opts, option{delta: int64(next-ex.cfg[p]) * w, p: 1})
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
			opts = append(opts, option{delta: int64(o.State-ex.cfg[p]) * w, p: o.Prob})
		}
		if len(outs) == 1 {
			opts[0].p = 1 // as in StepOutcomes, a lone outcome is certain
		} else {
			deterministic = false
			sortOutcomes(opts)
		}
		ex.opts[i] = opts
	}

	switch ex.pol {
	case scheduler.CentralPolicy:
		ex.centralRow(g, 1/float64(k))
	case scheduler.DistributedPolicy:
		w := 1 / float64(int(1)<<k-1)
		if !deterministic || !ex.distributedDetRow(g, w) {
			ex.rankRow(g, w, true)
		}
	case scheduler.SynchronousPolicy:
		if !deterministic {
			ex.rankRow(g, 1, false)
			break
		}
		delta := int64(0)
		for i := range k {
			delta += ex.opts[i][0].delta
		}
		ex.outTo = append(ex.outTo, g+delta)
		ex.outP = append(ex.outP, 1)
	}
	return legit, nil
}

// sortOutcomes sorts one position's outcomes by delta, stably. No merged
// sum moves: two entries of a row share a target only when their deltas
// agree position by position, and the stable sort keeps equal deltas in
// enumeration order.
func sortOutcomes(opts []option) {
	for i := 1; i < len(opts); i++ {
		o := opts[i]
		j := i
		for ; j > 0 && opts[j-1].delta > o.delta; j-- {
			opts[j] = opts[j-1]
		}
		opts[j] = o
	}
}

// centralRow emits a central row (one entry per outcome of each enabled
// position) in one pass from the top position down: negative-delta
// outcomes fill the row from the front and positive-delta ones from the
// back, each position's ascending, so the negatives come out top position
// first and the positives bottom position first. A position's equal
// deltas sum into one entry in outcome order. Between the two sides goes
// one self-loop summing the zero-delta outcomes in enumeration order
// (positions ascending), if there are any.
func (ex *explorer) centralRow(g int64, w float64) {
	n := 0
	for i := range ex.enabled {
		n += len(ex.opts[i])
	}
	to := slices.Grow(ex.outTo, n)[:n]
	out := slices.Grow(ex.outP, n)[:n]
	lo, hi, stays := 0, n, false
	for i := len(ex.enabled) - 1; i >= 0; i-- {
		os := ex.opts[i]
		j := 0
		for ; j < len(os) && os[j].delta < 0; j++ {
			if j > 0 && os[j].delta == os[j-1].delta {
				out[lo-1] += w * os[j].p
			} else {
				to[lo], out[lo] = g+os[j].delta, w*os[j].p
				lo++
			}
		}
		stays = stays || j < len(os) && os[j].delta == 0
		// Positives go from the back, a group of equal deltas [first, last]
		// at a time, summed in outcome order.
		for last := len(os) - 1; last >= 0 && os[last].delta > 0; last-- {
			first := last
			for first > 0 && os[first-1].delta == os[last].delta {
				first--
			}
			hi--
			to[hi], out[hi] = g+os[last].delta, w*os[first].p
			for x := first + 1; x <= last; x++ {
				out[hi] += w * os[x].p
			}
			last = first
		}
	}
	if stays {
		to[lo], out[lo] = g, 0 // 0+p is p exactly: the sum starts as the merge's does
		for i := range ex.enabled {
			for _, o := range ex.opts[i] {
				if o.delta == 0 {
					out[lo] += w * o.p
				}
			}
		}
		lo++
	}
	if hi > lo {
		copy(out[lo:], out[hi:])
		n = lo + copy(to[lo:], to[hi:])
	}
	ex.outTo, ex.outP = to[:n], out[:n]
}

// distributedDetRow emits a deterministic distributed row: position i's
// options are "not activated" and its one outcome, so entry x of the
// order activates the positions in x XOR neg, where neg holds the
// positions with a negative delta, and its target is base plus the
// subset sum of |delta| over x (base: all negative deltas applied). x =
// neg activates nothing and is dropped. Every entry weighs w. It reports
// false, emitting nothing, when an outcome keeps its state and so ties
// "not activated".
func (ex *explorer) distributedDetRow(g int64, w float64) bool {
	neg, base := 0, g
	ex.step = ex.step[:0]
	for i := range ex.enabled {
		d := ex.opts[i][0].delta
		if d == 0 {
			return false
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

// rankRow emits a synchronous row (each position's options are its
// outcomes) or, with idle set, a distributed one, whose options also hold
// "not activated" (delta 0). A position's options of equal delta form one
// group, and in target order the entries are an odometer over the groups
// with the top position varying slowest, so a target's rank is its group
// indexes read as a mixed-radix number. rankRow replays BuildReference's
// enumeration — masks ascending, each an odometer over the activated
// positions' outcomes with the last varying fastest — extending the
// cached products of the positions before the one that moved, and adds
// every entry at its rank, so entries sharing a target sum in enumeration
// order. No entry reaches the all-idle rank unless some outcome keeps its
// state, and then that rank is dropped.
func (ex *explorer) rankRow(g int64, w float64, idle bool) {
	k := len(ex.enabled)
	total, base, stays := 1, 0, false
	for i := range k {
		opts := ex.opts[i]
		groups, idleGroup := 0, -1
		for j, o := range opts {
			d := o.delta
			if idle && idleGroup < 0 && d >= 0 {
				idleGroup = groups
				if d > 0 {
					groups++ // "not activated" alone
				}
			}
			if j == 0 || d != opts[j-1].delta {
				groups++
			}
			opts[j].rank = (groups - 1) * total
			stays = stays || d == 0
		}
		if idle {
			if idleGroup < 0 {
				idleGroup = groups
				groups++
			}
			// Ranks are kept relative to the all-idle rank, base.
			base += idleGroup * total
			for j := range opts {
				opts[j].rank -= idleGroup * total
			}
		}
		total *= groups
	}
	ex.outTo = slices.Grow(ex.outTo, total)[:total]
	ex.outP = slices.Grow(ex.outP, total)[:total]
	clear(ex.outP)
	ex.odo = slices.Grow(ex.odo[:0], k)[:k]
	ex.prefix = slices.Grow(ex.prefix[:0], k)[:k]
	if !idle {
		ex.act = append(ex.act[:0], ex.opts[:k]...)
		ex.rankMask(g, w, 0)
		return
	}
	for mask := 1; mask < 1<<k; mask++ {
		ex.act = ex.act[:0]
		for m := mask; m != 0; m &= m - 1 {
			ex.act = append(ex.act, ex.opts[bits.TrailingZeros(uint(m))])
		}
		ex.rankMask(g, w, base)
	}
	if !stays {
		ex.outTo = slices.Delete(ex.outTo, base, base+1)
		ex.outP = slices.Delete(ex.outP, base, base+1)
	}
}

// rankMask adds the entries of one activation subset, whose positions'
// options are ex.act, to the row at their ranks, base being the all-idle
// one.
func (ex *explorer) rankMask(g int64, w float64, base int) {
	act, odo, pre := ex.act, ex.odo[:len(ex.act)], ex.prefix
	to, out := ex.outTo, ex.outP
	clear(odo)
	for j := 0; j >= 0; {
		cur := option{p: w, rank: base}
		if j > 0 {
			cur = pre[j-1]
		}
		for x := j; x < len(act); x++ {
			o := act[x][odo[x]]
			cur.delta += o.delta
			cur.p *= o.p
			cur.rank += o.rank
			pre[x] = cur
		}
		to[cur.rank] = g + cur.delta
		out[cur.rank] += cur.p
		for j = len(act) - 1; j >= 0; j-- {
			if odo[j]++; odo[j] < len(act[j]) {
				break
			}
			odo[j] = 0
		}
	}
}
