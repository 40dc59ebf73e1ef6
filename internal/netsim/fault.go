package netsim

import (
	"fmt"
	"sync/atomic"

	"weakstab/internal/sim"
)

// Delivery is one scheduled arrival of a published state message: the
// directed edge and per-edge sequence number of its publication, a copy
// index distinguishing duplicates of that publication, the number of
// rounds between publication and arrival, and the payload value.
type Delivery struct {
	// Edge is the directed edge the publication travels on (the in-edge
	// slot of the receiver, see Topology).
	Edge int32
	// Seq is the publication's per-edge sequence number.
	Seq uint32
	// Delay is the arrival delay in rounds after the publication round.
	// The simulator clamps it to >= 1 after the fault stack runs (a
	// message can never arrive in the round it was sent).
	Delay int32
	// Value is the payload: the sender's published local state, possibly
	// corrupted en route.
	Value int32
	// Copy distinguishes duplicates of one publication (the original is
	// copy 0, and copies of one publication never share an index). Within
	// one arrival round the receiver keeps the copy with the highest
	// (sequence, copy) pair, so duplication alone never makes a view go
	// backwards.
	Copy uint8
}

// maxCopy is the highest copy index: copy indexes are a byte, and the
// draws at 256+copy must stay below 512.
const maxCopy = 249

// Batch is the unit a LinkFault transforms: the publications of a chunk of
// one shard's senders in one round, and the copies of them that survived
// the layers so far. Each edge carries at most one publication per batch,
// so a message's Edge names its publication.
type Batch struct {
	// Msgs are the scheduled copies, grouped by publication in the order
	// of Pubs: the copies of one publication are adjacent. A fault
	// filters, rewrites or extends Msgs and leaves the result in Msgs.
	Msgs []Delivery
	// Pubs are the batch's publications as the engine wrote them, one
	// copy-0 message each with delay 1, including those whose copies an
	// earlier layer dropped. Faults must not modify them.
	Pubs []Delivery

	seqTerms []uint64   // seqTerms[q] = seqTerm(q), the engine's per-run table
	spare    []Delivery // a second message buffer for faults that grow Msgs
}

// draws returns the draws of m's publication under a fault's edge keys:
// b.draws(keys, m).at(c) == s.At(uint64(uint32(m.Edge)), uint64(m.Seq), c)
// for keys = s.edgeKeys(...).
func (b *Batch) draws(keys []uint64, m *Delivery) edgeDraws {
	return edgeDraws(sim.Mix64(keys[m.Edge] ^ b.seqTerm(m.Seq)))
}

// seqTerm is seqTerm(q), from the engine's table when it covers q. The
// fallback spells seqTerm out so that draws stays within the inliner's
// budget.
func (b *Batch) seqTerm(q uint32) uint64 {
	if int(q) < len(b.seqTerms) {
		return b.seqTerms[q]
	}
	return sim.Mix64(uint64(q) + streamB)
}

// Fault is one layer of the network fault model. A fault owns a private
// deterministic Stream (bound in Reset), so a fault stack is exactly
// reproducible from (topology, faults, seed) and independent of worker
// scheduling. Implementations are either LinkFaults (message-level:
// latency, loss, duplication, reorder, corruption) or ProcessFaults
// (crash-recover); the simulator type-switches the stack into the two
// roles, preserving the stack order among LinkFaults.
type Fault interface {
	// Name renders the fault and its parameters for reports.
	Name() string
	// Reset binds the fault to a run: the topology it acts on and its
	// private random stream. It must reinitialize all mutable per-edge or
	// per-process state (event counters persist across runs so trial
	// batches can aggregate them).
	Reset(t *Topology, s Stream)
}

// LinkFault transforms the messages of one Batch in one call: the engine
// writes a batch of publications, hands it through the link faults in
// stack order, and schedules whatever Msgs holds afterwards. A fault may
// drop, rewrite or add copies, but every copy keeps its publication's Edge
// and Seq and stays adjacent to that publication's other copies. All
// randomness must come from the bound Stream keyed by (Edge, Seq, Copy),
// never from call or message order, and a fault with per-edge state
// (Gilbert–Elliott's chain) advances it once per entry of Pubs, so a
// publication whose copies an earlier layer dropped still counts. A fault
// adds a new copy at 1 + the highest copy index its publication holds, at
// most 249, so copies of one publication never share an index (and thus
// never share a later layer's draws).
type LinkFault interface {
	Fault
	Transform(b *Batch)
}

// ProcessFault controls per-round process availability. BeginRound is
// called once per process per round, before deliveries and execution; it
// reports whether p is down during round r and, on a recovery that
// corrupts state, the replacement value. All randomness must be keyed by
// (p, r) so the decision is independent of sharding.
type ProcessFault interface {
	Fault
	BeginRound(p, r int32, state, domain int32) (down bool, reset bool, newState int32)
}

// counter is a fault's event counter on a cache line of its own. The
// shards bump it concurrently; sharing a line with the fault's
// read-mostly parameters would turn every draw on another core into a
// cache miss.
type counter struct {
	_ [64]byte
	atomic.Int64
	_ [56]byte
}

// Count is one named event counter of a fault.
type Count struct {
	Name string
	N    int64
}

// counted is implemented by faults that tally the events they caused.
type counted interface {
	Counts() []Count
}

// FaultCounts aggregates the event counters of every counting fault in a
// stack, in stack order.
func FaultCounts(faults []Fault) []Count {
	var out []Count
	for _, f := range faults {
		if c, ok := f.(counted); ok {
			out = append(out, c.Counts()...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Latency distributions

// Dist is a latency distribution over delays measured in whole rounds
// (>= 1). Sample maps a uniform 64-bit value to a delay, so equal inputs
// give equal delays — the determinism contract of the whole package.
type Dist interface {
	Name() string
	Sample(u uint64) int32
}

// Fixed is the constant delay d (>= 1).
type Fixed int32

// Name implements Dist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed:%d", int32(f)) }

// Sample implements Dist.
func (f Fixed) Sample(uint64) int32 {
	if f < 1 {
		return 1
	}
	return int32(f)
}

// Uniform is the uniform delay on {Lo, ..., Hi}.
type Uniform struct {
	Lo, Hi int32
}

// Name implements Dist.
func (u Uniform) Name() string { return fmt.Sprintf("uniform:%d:%d", u.Lo, u.Hi) }

// Sample implements Dist.
func (u Uniform) Sample(x uint64) int32 {
	lo, hi := u.Lo, u.Hi
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + int32(x%uint64(hi-lo+1))
}

// Geometric is the delay 1 + Geometric with the given mean (>= 1): a
// memoryless network where most messages are fast and a heavy-ish tail is
// arbitrarily late.
type Geometric struct {
	Mean float64
}

// Name implements Dist.
func (g Geometric) Name() string { return fmt.Sprintf("geom:%g", g.Mean) }

// Sample implements Dist.
func (g Geometric) Sample(x uint64) int32 { return geometric(x, g.Mean) }

// ---------------------------------------------------------------------------
// Link faults

// Latency assigns every copy a fresh delay drawn from D. Without a Latency
// fault in the stack every message takes exactly one round.
type Latency struct {
	D    Dist
	keys []uint64
}

// Name implements Fault.
func (l *Latency) Name() string { return "latency(" + l.D.Name() + ")" }

// Reset implements Fault.
func (l *Latency) Reset(t *Topology, s Stream) { l.keys = s.edgeKeys(l.keys, t) }

// Transform implements LinkFault.
func (l *Latency) Transform(b *Batch) {
	keys, msgs := l.keys, b.Msgs
	for i := range msgs {
		m := &msgs[i]
		m.Delay = l.D.Sample(b.draws(keys, m).at(uint64(m.Copy)))
	}
}

// Loss drops every copy independently with probability P — the i.i.d.
// erasure channel.
type Loss struct {
	P       float64
	keys    []uint64
	dropped counter
}

// Name implements Fault.
func (l *Loss) Name() string { return fmt.Sprintf("loss(%g)", l.P) }

// Reset implements Fault.
func (l *Loss) Reset(t *Topology, s Stream) { l.keys = s.edgeKeys(l.keys, t) }

// Counts implements the counter aggregation.
func (l *Loss) Counts() []Count { return []Count{{"lost", l.dropped.Load()}} }

// Transform implements LinkFault.
func (l *Loss) Transform(b *Batch) {
	thr, keys, msgs := threshold(l.P), l.keys, b.Msgs
	k := 0
	for i := range msgs {
		m := &msgs[i]
		if !hit(b.draws(keys, m).at(uint64(m.Copy)), thr) {
			msgs[k] = *m
			k++
		}
	}
	l.dropped.Add(int64(len(msgs) - k))
	b.Msgs = msgs[:k]
}

// GilbertElliott is the classic two-state bursty loss channel: each
// directed edge carries an independent Good/Bad Markov chain advanced once
// per publication — also one whose copies an earlier layer dropped; copies
// are dropped with LossGood in the Good state and LossBad in the Bad
// state. PGB and PBG are the per-publication transition probabilities
// Good→Bad and Bad→Good, so the stationary Bad fraction is PGB/(PGB+PBG)
// and the mean Bad burst length is 1/PBG publications.
type GilbertElliott struct {
	PGB, PBG float64
	LossGood float64
	LossBad  float64

	keys    []uint64
	bad     []bool // per-edge chain state
	dropped counter
}

// Name implements Fault.
func (g *GilbertElliott) Name() string {
	return fmt.Sprintf("ge(%g:%g:%g:%g)", g.PGB, g.PBG, g.LossGood, g.LossBad)
}

// Reset implements Fault.
func (g *GilbertElliott) Reset(t *Topology, s Stream) {
	g.keys = s.edgeKeys(g.keys, t)
	g.bad = make([]bool, t.NumEdges())
}

// Counts implements the counter aggregation.
func (g *GilbertElliott) Counts() []Count { return []Count{{"burst-lost", g.dropped.Load()}} }

// Transform implements LinkFault. The chain step draws at copy coordinate
// 0 and the loss of copy c at 1+c.
func (g *GilbertElliott) Transform(b *Batch) {
	keys, state := g.keys, g.bad
	gb, bg := threshold(g.PGB), threshold(g.PBG)
	for i := range b.Pubs {
		p := &b.Pubs[i]
		u := b.draws(keys, p).at(0)
		if state[p.Edge] {
			state[p.Edge] = !hit(u, bg)
		} else {
			state[p.Edge] = hit(u, gb)
		}
	}
	good, bad, msgs := threshold(g.LossGood), threshold(g.LossBad), b.Msgs
	k := 0
	for i := range msgs {
		m := &msgs[i]
		thr := good
		if state[m.Edge] {
			thr = bad
		}
		if thr == 0 || !hit(b.draws(keys, m).at(1+uint64(m.Copy)), thr) {
			msgs[k] = *m
			k++
		}
	}
	g.dropped.Add(int64(len(msgs) - k))
	b.Msgs = msgs[:k]
}

// Duplicate delivers an extra copy of each surviving copy independently
// with probability P. A duplicate inherits the current delay and value and
// takes copy index 1 + the highest index its publication holds (no
// duplicate once that would pass 249), so a later Reorder or Corrupt layer
// perturbs it independently of every other copy. The duplicates of a
// publication follow its other copies.
type Duplicate struct {
	P     float64
	keys  []uint64
	extra counter
}

// Name implements Fault.
func (d *Duplicate) Name() string { return fmt.Sprintf("dup(%g)", d.P) }

// Reset implements Fault.
func (d *Duplicate) Reset(t *Topology, s Stream) { d.keys = s.edgeKeys(d.keys, t) }

// Counts implements the counter aggregation.
func (d *Duplicate) Counts() []Count { return []Count{{"duplicated", d.extra.Load()}} }

// Transform implements LinkFault.
func (d *Duplicate) Transform(b *Batch) {
	thr, keys, msgs := threshold(d.P), d.keys, b.Msgs
	out := b.spare[:0]
	for lo := 0; lo < len(msgs); {
		hi, top := lo+1, msgs[lo].Copy
		for hi < len(msgs) && msgs[hi].Edge == msgs[lo].Edge {
			top = max(top, msgs[hi].Copy)
			hi++
		}
		out = append(out, msgs[lo:hi]...)
		draws := b.draws(keys, &msgs[lo])
		for i := lo; i < hi && top < maxCopy; i++ {
			if hit(draws.at(uint64(msgs[i].Copy)), thr) {
				top++
				out = append(out, msgs[i])
				out[len(out)-1].Copy = top
			}
		}
		lo = hi
	}
	d.extra.Add(int64(len(out) - len(msgs)))
	b.Msgs, b.spare = out, msgs[:0]
}

// Reorder delays each copy independently with probability P by an extra
// 1..Bound rounds, letting newer publications overtake it — bounded
// reordering in the Dolev–Herman sense. The receiver applies whatever
// arrives last, so an overtaken message genuinely rolls a view back to a
// stale value when it lands.
type Reorder struct {
	P     float64
	Bound int32
	keys  []uint64
	moved counter
}

// Name implements Fault.
func (r *Reorder) Name() string { return fmt.Sprintf("reorder(%g:%d)", r.P, r.Bound) }

// Reset implements Fault.
func (r *Reorder) Reset(t *Topology, s Stream) { r.keys = s.edgeKeys(r.keys, t) }

// Counts implements the counter aggregation.
func (r *Reorder) Counts() []Count { return []Count{{"reordered", r.moved.Load()}} }

// Transform implements LinkFault. The decision for copy c draws at copy
// coordinate c and the jitter at 256+c.
func (r *Reorder) Transform(b *Batch) {
	thr, bound := threshold(r.P), uint64(max(r.Bound, 1))
	keys, msgs := r.keys, b.Msgs
	moved := int64(0)
	for i := range msgs {
		m := &msgs[i]
		draws := b.draws(keys, m)
		if hit(draws.at(uint64(m.Copy)), thr) {
			m.Delay += 1 + int32(draws.at(256+uint64(m.Copy))%bound)
			moved++
		}
	}
	r.moved.Add(moved)
}

// Corrupt replaces each copy's payload independently with probability P by
// a uniform value from the sender's state domain — transient message
// corruption that keeps views in-domain (algorithms never observe an
// impossible neighbor state, exactly as when a neighbor's memory itself is
// hit by a transient fault).
type Corrupt struct {
	P       float64
	keys    []uint64
	t       *Topology
	flipped counter
}

// Name implements Fault.
func (c *Corrupt) Name() string { return fmt.Sprintf("corrupt(%g)", c.P) }

// Reset implements Fault.
func (c *Corrupt) Reset(t *Topology, s Stream) { c.keys, c.t = s.edgeKeys(c.keys, t), t }

// Counts implements the counter aggregation.
func (c *Corrupt) Counts() []Count { return []Count{{"corrupted", c.flipped.Load()}} }

// Transform implements LinkFault. The decision for copy k draws at copy
// coordinate k and the new value at 256+k.
func (c *Corrupt) Transform(b *Batch) {
	thr, keys, msgs := threshold(c.P), c.keys, b.Msgs
	flipped := int64(0)
	for i := range msgs {
		m := &msgs[i]
		draws := b.draws(keys, m)
		if hit(draws.at(uint64(m.Copy)), thr) {
			dom := uint64(c.t.domain[c.t.sender[m.Edge]])
			m.Value = int32(draws.at(256+uint64(m.Copy)) % dom)
			flipped++
		}
	}
	c.flipped.Add(flipped)
}

// ---------------------------------------------------------------------------
// Process faults

// CrashRecover crashes each live process independently with probability
// Rate per round; a crashed process neither executes nor publishes, and
// every message addressed to it while down is lost. Downtime is
// 1 + Geometric with mean MeanDown rounds. On recovery the process either
// resumes with its pre-crash state (Hold) or restarts from a uniformly
// random state — the adversarial reset that makes crash-recover a source
// of transient faults.
type CrashRecover struct {
	Rate     float64
	MeanDown float64
	Hold     bool

	s         Stream
	until     []int32 // down during rounds [crash, until); 0 = never crashed
	crashes   counter
	recovered counter
}

// Name implements Fault.
func (c *CrashRecover) Name() string {
	mode := "reset"
	if c.Hold {
		mode = "hold"
	}
	return fmt.Sprintf("crash(%g:%g:%s)", c.Rate, c.MeanDown, mode)
}

// Reset implements Fault.
func (c *CrashRecover) Reset(t *Topology, s Stream) {
	c.s = s
	c.until = make([]int32, t.N())
}

// Counts implements the counter aggregation.
func (c *CrashRecover) Counts() []Count {
	return []Count{{"crashes", c.crashes.Load()}, {"recoveries", c.recovered.Load()}}
}

// BeginRound implements ProcessFault.
func (c *CrashRecover) BeginRound(p, r int32, _, domain int32) (down bool, reset bool, newState int32) {
	if r < c.until[p] && c.until[p] > 0 {
		return true, false, 0
	}
	if c.until[p] > 0 && r == c.until[p] {
		c.recovered.Add(1)
		if !c.Hold {
			reset = true
			newState = int32(c.s.At(uint64(uint32(p)), uint64(uint32(r)), 7) % uint64(domain))
		}
	}
	if c.Rate > 0 && c.s.Float(uint64(uint32(p)), uint64(uint32(r)), 1) < c.Rate {
		d := geometric(c.s.At(uint64(uint32(p)), uint64(uint32(r)), 2), c.MeanDown)
		c.until[p] = r + d
		c.crashes.Add(1)
		return true, reset, newState
	}
	return false, reset, newState
}
