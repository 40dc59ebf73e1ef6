// Package netsim is the message-passing simulation backend: it executes the
// library's protocol.Algorithms — unchanged — over a round-batched
// discrete-event network instead of the paper's shared-memory daemon.
//
// Every process owns its local state and publishes it to its neighbors in
// messages; guard evaluation reads neighbors from a per-process view cache
// of the last received values (protocol.LocalView), never from shared
// memory. A composable fault stack over the link model — latency
// distributions, i.i.d. and Gilbert–Elliott bursty loss, duplication,
// bounded reorder, crash-recover, transient corruption — produces the
// "unsupportive environments" of Dolev and Herman at scales the exact
// checker can never touch (10^6 simulated processes on one box, the event
// loop sharded by graph partition).
//
// Reproducibility contract: every random decision is a counter-based hash
// of (seed, fault, edge/process, sequence/round, copy) — see Stream — so a
// run is a pure function of (topology, faults, seed) and bit-identical
// across worker and shard counts.
//
// Under a fault-free network with one-round latency the simulator is
// step-for-step the synchronous daemon: round r delivers the states
// published after round r-1, so every guard reads exactly the pre-step
// configuration. That equivalence is the validation hook back to the exact
// engine (markov.HittingTimes); see the parity tests and experiment E20.
package netsim

import (
	"context"
	"fmt"
	"runtime"
	"slices"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/statespace"
)

// Topology is the precomputed directed-edge view of an algorithm's
// communication graph: the in-edge slots of every process (the view cache
// layout) and, per directed edge, its sender and its receiver. Edge e is
// the i-th in-edge of receiver p iff e = Off(p)+i, with sender
// Graph.Neighbor(p, i).
type Topology struct {
	n      int
	off    []int32 // len n+1; in-edge slots of p are off[p]..off[p+1]
	sender []int32 // sender[e] = global id of the sender on in-edge e
	recv   []int32 // recv[e] = receiver of in-edge e
	out    []int32 // out[off[p]+j] = in-edge id at neighbor j for sender p
	domain []int32 // domain[p] = StateCount(p)
}

// N returns the number of processes.
func (t *Topology) N() int { return t.n }

// NumEdges returns the number of directed edges (twice the undirected
// edge count).
func (t *Topology) NumEdges() int { return len(t.sender) }

// NewTopology precomputes the directed-edge layout of a's graph. The
// in-edge slots and senders are the graph's own CSR (Graph.CSR), shared
// read-only; only recv, out and domain are allocated here.
func NewTopology(a protocol.Algorithm) (*Topology, error) {
	g := a.Graph()
	n := g.N()
	off, sender := g.CSR()
	t := &Topology{
		n: n, off: off, sender: sender,
		recv:   make([]int32, len(sender)),
		out:    make([]int32, len(sender)),
		domain: make([]int32, n),
	}
	for p := 0; p < n; p++ {
		sc := a.StateCount(p)
		if sc < 1 || sc > 1<<31-1 {
			return nil, fmt.Errorf("netsim: process %d has state domain %d, need [1, 2^31)", p, sc)
		}
		t.domain[p] = int32(sc)
		for e := off[p]; e < off[p+1]; e++ {
			q := int(sender[e])
			t.recv[e] = int32(p)
			// The same slot, seen from the sender side: p's in-edge e
			// is q's out-edge towards p, at q's local index of p.
			j, ok := g.LocalIndex(q, p)
			if !ok {
				return nil, fmt.Errorf("netsim: asymmetric adjacency at (%d,%d)", p, q)
			}
			t.out[off[q]+int32(j)] = e
		}
	}
	return t, nil
}

// Options tunes a simulation run. The zero value is ready to use.
type Options struct {
	// MaxRounds bounds the run; 0 means 100_000.
	MaxRounds int
	// Seed drives every random decision (faults, probabilistic outcomes,
	// random initial configurations in Trials). Runs are bit-identical
	// given equal (topology, faults, seed), regardless of Workers/Shards.
	Seed int64
	// Faults is the network fault stack, applied to the publications in
	// order. An empty stack is the reliable synchronous network
	// (every message arrives exactly one round after it is sent).
	Faults []Fault
	// Workers bounds the goroutines driving the shards (0: NumCPU).
	Workers int
	// Shards partitions the processes into contiguous blocks that own
	// their states, views and calendars (0: auto — 1 for small instances,
	// up to Workers for large ones). Results never depend on it.
	Shards int
	// CheckEvery is the legitimacy-check period in rounds (0: every
	// round). Larger periods trade detection granularity for speed on
	// million-process instances.
	CheckEvery int
	// Record collects the canonical event trace into Result.Trace.
	Record bool
	// Obs receives simulation metrics and progress events (nil falls back
	// to obs.Default(); both nil disables instrumentation). Observability
	// is a side channel only: results are bit-identical with it on or off.
	Obs *obs.Observer
	// Trial labels this run's progress events within a batch (Trials /
	// Restabilization set it); it does not affect the simulation.
	Trial int
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 100_000
	}
	return o.MaxRounds
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Options) shards(n int) int {
	if o.Shards > 0 {
		return o.Shards
	}
	s := min(o.workers(), n/4096)
	return max(1, s)
}

func (o Options) checkEvery() int {
	if o.CheckEvery <= 0 {
		return 1
	}
	return o.CheckEvery
}

// Result reports one simulated execution.
type Result struct {
	// Converged is true if the true global configuration (the union of
	// the per-process states, not the possibly-stale views) was legitimate
	// at some checked round within the budget.
	Converged bool
	// Rounds is the number of executed rounds before the successful check
	// (so 0 when the initial configuration is legitimate), or the full
	// budget when Converged is false.
	Rounds int
	// Sent counts publications (one per process per neighbor per live
	// round); Delivered counts applied copies; DroppedCrash counts copies
	// addressed to a crashed process.
	Sent, Delivered, DroppedCrash int64
	// Final is the global configuration after the last round.
	Final protocol.Configuration
	// Trace is the canonically ordered event trace (Options.Record).
	Trace []Event
}

// delivery is one queued arrival: the in-edge slot it lands on, the
// payload, and the (sequence, copy) pair that decides in-round races.
type delivery struct {
	edge int32
	val  int32
	seq  uint32
	cp   uint8
}

// timed is a delivery with its arrival round, used in the cross-shard
// outboxes.
type timed struct {
	round int32
	d     delivery
}

// publishChunk is the number of senders whose publications make up one
// Batch of the link-fault stack. Results never depend on it.
var publishChunk = 256

// calInitLen is the initial ring length of a calendar: delays of up to
// three rounds fit without growing it.
const calInitLen = 4

// calendar holds a shard's pending arrivals in a power-of-two ring of
// buckets: ring[r&mask] holds the deliveries due in round r, for the
// rounds [base, base+len(ring)). A push past the window doubles the ring
// (latency:geom is unbounded). A bucket's backing array goes back to spare
// once it is drained and on to the next bucket that needs storage, so the
// ring retains no more capacity than the buckets in flight need.
type calendar struct {
	ring  [][]delivery
	base  int32
	spare [][]delivery
}

// push queues d for round r >= base.
func (c *calendar) push(r int32, d delivery) {
	b := c.bucket(r)
	*b = append(*b, d)
}

// bucket returns the bucket of round r >= base, handing it spare storage
// if it has none. The pointer stays valid until the ring grows, which
// only a later bucket or push call can do.
func (c *calendar) bucket(r int32) *[]delivery {
	if r-c.base >= int32(len(c.ring)) {
		c.grow(r)
	}
	b := &c.ring[r&int32(len(c.ring)-1)]
	if cap(*b) == 0 && len(c.spare) > 0 {
		*b = c.spare[len(c.spare)-1]
		c.spare = c.spare[:len(c.spare)-1]
	}
	return b
}

// grow doubles the ring until round r fits and re-slots the pending
// buckets.
func (c *calendar) grow(r int32) {
	n := max(2*len(c.ring), calInitLen)
	for r-c.base >= int32(n) {
		n *= 2
	}
	ring := make([][]delivery, n)
	for q := c.base; q < c.base+int32(len(c.ring)); q++ {
		ring[q&int32(n-1)] = c.ring[q&int32(len(c.ring)-1)]
	}
	c.ring = ring
}

// take detaches the bucket of round r and moves the window to start at r.
// Rounds are taken in order, each once; the caller hands the bucket back
// with recycle after reading it.
func (c *calendar) take(r int32) []delivery {
	c.base = r
	if len(c.ring) == 0 {
		return nil
	}
	b := &c.ring[r&int32(len(c.ring)-1)]
	bucket := *b
	*b = nil
	return bucket
}

// recycle returns a drained bucket's storage for reuse.
func (c *calendar) recycle(bucket []delivery) {
	if cap(bucket) > 0 {
		c.spare = append(c.spare, bucket[:0])
	}
}

// shard owns a contiguous block of processes: their states, view-cache
// slots, per-edge publication sequences, and the calendar of pending
// arrivals addressed to them. Phase 1 pushes a publication for a receiver
// in the same shard straight into the shard's own calendar; only
// cross-shard deliveries go through the outboxes.
type shard struct {
	id     int32
	lo, hi int32 // process range [lo, hi)

	cal    calendar
	outbox [][]timed // per destination shard: cross-shard deliveries of this round

	lv    *protocol.LocalView
	batch Batch // the link-fault stack's messages, reused chunk after chunk
	sent  int64
	deliv int64
	drop  int64

	events []Event

	// The shards sit side by side in engine.shards and phase 1 writes
	// their counters and calendars per message on every core; the pad
	// keeps one shard's fields off its neighbor's cache lines.
	_ [64]byte
}

// engine is one run: the per-process and per-edge arrays (each entry
// written by exactly one shard) and the shards. A round is two barriered
// passes over the shards: phase1 (deliver, execute, publish) and phase2
// (move the cross-shard outboxes into the receivers' calendars).
type engine struct {
	a     protocol.Algorithm
	det   protocol.Deterministic
	t     *Topology
	opts  Options
	state []int    // state[p]: the true local state of p
	view  []int    // view[e]: receiver's cached value of the sender on in-edge e
	seq   []uint32 // seq[e]: publications so far on e (written by the sender's shard)

	// In-round race resolution: mark[e] = r+1 when view[e] was written in
	// round r, key[e] = (seq<<8 | copy) of the write — the winner of a
	// round is the highest key, independent of application order.
	mark []int32
	key  []uint64

	down []bool
	// quiet[p] is set when p's guard evaluated Disabled and cleared when
	// one of its inputs changes: a delivery writing a different value into
	// one of p's view slots, or a process fault resetting state[p]. A
	// quiet process would evaluate the same guard on the same inputs, so
	// the execute pass skips it.
	quiet    []bool
	link     []LinkFault
	proc     []ProcessFault
	seqTerms []uint64 // seqTerms[q] = seqTerm(q) for every sequence number so far
	exec     Stream   // probabilistic-outcome sampling
	shards   []shard
	shardOf  []int32
}

// RunOnContext executes a from init over the configured network on the
// prebuilt topology t (one Topology serves every run of a trial batch)
// until a legitimacy check succeeds or the round budget is exhausted. ctx
// is checked at legitimacy-check round boundaries (every
// Options.CheckEvery rounds), so a cancelled simulation returns an error
// wrapping ctx.Err() within one check interval.
func RunOnContext(ctx context.Context, t *Topology, a protocol.Algorithm, init protocol.Configuration, opts Options) (Result, error) {
	if len(init) != t.n {
		return Result{}, fmt.Errorf("netsim: initial configuration has %d states, topology %d", len(init), t.n)
	}
	s := &engine{a: a, t: t, opts: opts}
	s.det, _ = a.(protocol.Deterministic)
	s.exec = NewStream(opts.Seed, "exec")
	for i, f := range opts.Faults {
		f.Reset(t, NewStream(opts.Seed, fmt.Sprintf("fault:%d:%s", i, f.Name())))
		switch ff := f.(type) {
		case LinkFault:
			s.link = append(s.link, ff)
		case ProcessFault:
			s.proc = append(s.proc, ff)
		default:
			return Result{}, fmt.Errorf("netsim: fault %s is neither a LinkFault nor a ProcessFault", f.Name())
		}
	}

	n := t.n
	s.state = make([]int, n)
	copy(s.state, init)
	for p, v := range s.state {
		if v < 0 || v >= int(t.domain[p]) {
			return Result{}, fmt.Errorf("netsim: initial state %d of process %d outside domain [0,%d)", v, p, t.domain[p])
		}
	}
	// Initial views are consistent: as if one reliable exchange preceded
	// round 0, so the first round reads exactly the initial configuration
	// (the synchronous-parity anchor).
	s.view = make([]int, t.NumEdges())
	for e := range s.view {
		s.view[e] = s.state[t.sender[e]]
	}
	s.mark = make([]int32, t.NumEdges())
	s.key = make([]uint64, t.NumEdges())
	s.seq = make([]uint32, t.NumEdges())
	s.down = make([]bool, n)
	s.quiet = make([]bool, n)

	ns := opts.shards(n)
	if ns > n {
		ns = n
	}
	s.shards = make([]shard, ns)
	s.shardOf = make([]int32, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.id = int32(i)
		sh.lo, sh.hi = int32(i*n/ns), int32((i+1)*n/ns)
		sh.outbox = make([][]timed, ns)
		sh.lv = protocol.NewLocalView(a)
		for p := sh.lo; p < sh.hi; p++ {
			s.shardOf[p] = int32(i)
		}
	}

	budget := opts.maxRounds()
	check := opts.checkEvery()
	conv := -1
	o := obs.Or(opts.Obs)
	for r := 0; r < budget; r++ {
		if r%check == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("netsim: run canceled at round %d: %w", r, err)
			}
			if s.a.Legitimate(protocol.Configuration(s.state)) {
				conv = r
				break
			}
			// Progress is sampled at power-of-two check rounds, so a long
			// diverging run logs O(log rounds) events, not O(rounds).
			if o.On() && r > 0 && r&(r-1) == 0 {
				var sent, deliv int64
				for i := range s.shards {
					sent += s.shards[i].sent
					deliv += s.shards[i].deliv
				}
				o.Emit("netsim.round", obs.NetsimRound{Trial: opts.Trial, Round: r, Sent: sent, Delivered: deliv})
			}
		}
		// A publication of round r has a sequence number of at most r.
		s.seqTerms = append(s.seqTerms, seqTerm(uint32(r)))
		s.parallel(func(sh *shard) { s.phase1(sh, int32(r)) })
		if len(s.shards) > 1 {
			s.parallel(func(sh *shard) { s.phase2(sh) })
		}
	}
	res := Result{Rounds: budget, Final: protocol.Configuration(s.state)}
	if conv >= 0 {
		res.Converged, res.Rounds = true, conv
	} else if s.a.Legitimate(protocol.Configuration(s.state)) {
		res.Converged = true
	}
	for i := range s.shards {
		sh := &s.shards[i]
		res.Sent += sh.sent
		res.Delivered += sh.deliv
		res.DroppedCrash += sh.drop
		res.Trace = append(res.Trace, sh.events...)
	}
	if opts.Record {
		sortEvents(res.Trace)
	}
	o.Counter("netsim.runs").Add(1)
	o.Counter("netsim.rounds").Add(int64(res.Rounds))
	o.Counter("netsim.proc_rounds").Add(int64(res.Rounds) * int64(t.n))
	o.Counter("netsim.sent").Add(res.Sent)
	o.Counter("netsim.delivered").Add(res.Delivered)
	o.Counter("netsim.dropped_crash").Add(res.DroppedCrash)
	return res, nil
}

// parallel runs fn over every shard on ForRanges: inline when there is one
// shard or one worker, otherwise on a pool pulling shard indexes. A panic
// in fn is re-raised on the caller.
func (s *engine) parallel(fn func(*shard)) {
	statespace.ForRanges(len(s.shards), s.opts.workers(), 1, func(i, _ int) error {
		fn(&s.shards[i])
		return nil
	})
}

// phase1 advances one shard through round r: crash bookkeeping, applying
// the arrivals due this round to the view caches, executing every live
// process that is not quiet against its view, and pushing the round's
// publications through the fault stack into the shard's own calendar
// (receiver in this shard) or the per-destination outboxes (receiver
// elsewhere). It touches only shard-owned state plus the
// (phase-barriered) outboxes.
func (s *engine) phase1(sh *shard, r int32) {
	t := s.t
	// Process faults first: a process down in round r loses this round's
	// arrivals too (its mailbox is dead while it is).
	for _, pf := range s.proc {
		for p := sh.lo; p < sh.hi; p++ {
			wasDown := s.down[p]
			dn, reset, nv := pf.BeginRound(p, r, int32(s.state[p]), t.domain[p])
			if reset {
				s.state[p] = int(nv)
				s.quiet[p] = false
			}
			s.down[p] = dn
			if s.opts.Record && dn != wasDown {
				kind := EvCrash
				if !dn {
					kind = EvRecover
				}
				sh.events = append(sh.events, Event{Round: r, Kind: kind, Proc: p, Value: int32(s.state[p])})
			}
		}
	}

	// Arrivals due this round. The in-round winner per view slot is the
	// highest (seq, copy) — application order (hence shard layout) is
	// irrelevant.
	bucket := sh.cal.take(r)
	for _, d := range bucket {
		p := t.recv[d.edge]
		if s.down[p] {
			sh.drop++
			if s.opts.Record {
				sh.events = append(sh.events, Event{Round: r, Kind: EvDropCrashed, Proc: p, Edge: d.edge, Seq: d.seq, Copy: d.cp, Value: d.val})
			}
			continue
		}
		k := uint64(d.seq)<<8 | uint64(d.cp)
		if s.mark[d.edge] != r+1 || k > s.key[d.edge] {
			s.mark[d.edge] = r + 1
			s.key[d.edge] = k
			// Conservative if a later write of this round restores the
			// old value: p merely re-evaluates an unchanged guard.
			if s.view[d.edge] != int(d.val) {
				s.view[d.edge] = int(d.val)
				s.quiet[p] = false
			}
		}
		sh.deliv++
		if s.opts.Record {
			sh.events = append(sh.events, Event{Round: r, Kind: EvDeliver, Proc: p, Edge: d.edge, Seq: d.seq, Copy: d.cp, Value: d.val})
		}
	}
	sh.cal.recycle(bucket)

	// Execute: every live process that is not quiet evaluates its guard
	// against its view (own state + cached neighbor values) and moves.
	// Skipping a quiet process changes no result: by the Algorithm purity
	// contract its guard would read the same inputs and again be
	// Disabled, and evaluating a guard draws nothing from the exec
	// stream, which only sample reads. Writing state[p] immediately is
	// safe — no other process ever reads it; neighbors see it only
	// through messages.
	for p := sh.lo; p < sh.hi; p++ {
		if s.down[p] || s.quiet[p] {
			continue
		}
		cfg := sh.lv.Materialize(int(p), s.state[p], s.view[t.off[p]:t.off[p+1]])
		act := s.a.EnabledAction(cfg, int(p))
		if act == protocol.Disabled {
			s.quiet[p] = true
			continue
		}
		if s.det != nil {
			s.state[p] = s.det.DeterministicExecute(cfg, int(p), act)
		} else {
			s.state[p] = s.sample(cfg, p, r, act)
		}
	}

	// Publish: every live process sends its (new) state to every neighbor,
	// publishChunk senders at a time: the chunk's publications go through
	// the link-fault stack as one Batch, which maps them to zero or more
	// future arrivals. An arrival for this shard goes straight into its
	// calendar: the delay is at least one round, so it never lands in the
	// bucket drained above.
	for i := range sh.outbox {
		sh.outbox[i] = sh.outbox[i][:0]
	}
	b := &sh.batch
	b.seqTerms = s.seqTerms
	// Arrivals mostly share a round, so the calendar bucket of the last
	// one is kept at hand.
	due, slot := int32(-1), (*[]delivery)(nil)
	for lo := sh.lo; lo < sh.hi; lo += int32(publishChunk) {
		hi := min(lo+int32(publishChunk), sh.hi)
		// Writing by index into presized storage keeps the compiler from
		// staging each 20-byte message on the stack.
		n := int(t.off[hi] - t.off[lo])
		pubs, k := slices.Grow(b.Pubs[:0], n)[:n], 0
		for p := lo; p < hi; p++ {
			if s.down[p] {
				continue
			}
			v := int32(s.state[p])
			for _, e := range t.out[t.off[p]:t.off[p+1]] {
				pubs[k] = Delivery{Edge: e, Seq: s.seq[e], Delay: 1, Value: v}
				s.seq[e]++
				k++
			}
		}
		b.Pubs = pubs[:k]
		b.Msgs = append(b.Msgs[:0], b.Pubs...)
		for _, lf := range s.link {
			lf.Transform(b)
		}
		sh.sent += int64(k)
		for i := range b.Msgs {
			m := &b.Msgs[i]
			d, at := delivery{edge: m.Edge, val: m.Value, seq: m.Seq, cp: m.Copy}, r+max(m.Delay, 1)
			if q := t.recv[m.Edge]; q >= sh.lo && q < sh.hi {
				if at != due {
					due, slot = at, sh.cal.bucket(at)
				}
				*slot = append(*slot, d)
			} else {
				dst := s.shardOf[q]
				sh.outbox[dst] = append(sh.outbox[dst], timed{round: at, d: d})
			}
		}
	}
}

// phase2 drains the cross-shard outboxes addressed to this shard into its
// calendar. Source order is irrelevant: the in-round winner rule makes
// bucket content order immaterial, and the canonical trace is sorted at
// the end.
func (s *engine) phase2(sh *shard) {
	for i := range s.shards {
		for _, td := range s.shards[i].outbox[sh.id] {
			sh.cal.push(td.round, td.d)
		}
	}
}

// sample draws a probabilistic outcome with the counter-based execution
// stream, keyed (process, round) so it is independent of evaluation order.
func (s *engine) sample(cfg protocol.Configuration, p, r int32, act int) int {
	outs := s.a.Outcomes(cfg, int(p), act)
	if len(outs) == 1 {
		return outs[0].State
	}
	x := s.exec.Float(uint64(uint32(p)), uint64(uint32(r)), 0)
	acc := 0.0
	for _, o := range outs {
		acc += o.Prob
		if x < acc {
			return o.State
		}
	}
	return outs[len(outs)-1].State
}
