package netsim

import (
	"fmt"
	"sync/atomic"
)

// Delivery is one scheduled arrival of a published state message: the
// payload value, the number of rounds between publication and arrival, and
// a copy index distinguishing duplicates of the same publication.
type Delivery struct {
	// Delay is the arrival delay in rounds after the publication round.
	// The simulator clamps it to >= 1 after the fault stack runs (a
	// message can never arrive in the round it was sent).
	Delay int32
	// Value is the payload: the sender's published local state, possibly
	// corrupted en route.
	Value int32
	// Copy distinguishes duplicates of one publication (the original is
	// copy 0). Within one arrival round the receiver keeps the copy with
	// the highest (sequence, copy) pair, so duplication alone never makes
	// a view go backwards.
	Copy uint8
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

// LinkFault transforms the scheduled deliveries of one publication on
// directed edge e with per-edge sequence number seq. It is called exactly
// once per publication — even when an earlier layer dropped every copy —
// so faults with per-edge chains (Gilbert–Elliott) advance deterministically.
// It may mutate and return dels (filtering, appending, or rewriting in
// place); all randomness must come from the bound Stream keyed by
// (e, seq, copy), never from call order.
type LinkFault interface {
	Fault
	Transform(e int32, seq uint32, dels []Delivery) []Delivery
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
	D Dist
	s Stream
	t *Topology
}

// Name implements Fault.
func (l *Latency) Name() string { return "latency(" + l.D.Name() + ")" }

// Reset implements Fault.
func (l *Latency) Reset(t *Topology, s Stream) { l.s, l.t = s, t }

// Transform implements LinkFault.
func (l *Latency) Transform(e int32, seq uint32, dels []Delivery) []Delivery {
	draws := l.s.onEdge(l.t, e, seq)
	for i := range dels {
		dels[i].Delay = l.D.Sample(draws.at(uint64(dels[i].Copy)))
	}
	return dels
}

// Loss drops every copy independently with probability P — the i.i.d.
// erasure channel.
type Loss struct {
	P       float64
	s       Stream
	t       *Topology
	dropped counter
}

// Name implements Fault.
func (l *Loss) Name() string { return fmt.Sprintf("loss(%g)", l.P) }

// Reset implements Fault.
func (l *Loss) Reset(t *Topology, s Stream) { l.s, l.t = s, t }

// Counts implements the counter aggregation.
func (l *Loss) Counts() []Count { return []Count{{"lost", l.dropped.Load()}} }

// Transform implements LinkFault.
func (l *Loss) Transform(e int32, seq uint32, dels []Delivery) []Delivery {
	draws := l.s.onEdge(l.t, e, seq)
	kept := dels[:0]
	for _, d := range dels {
		if draws.float(uint64(d.Copy)) < l.P {
			l.dropped.Add(1)
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// GilbertElliott is the classic two-state bursty loss channel: each
// directed edge carries an independent Good/Bad Markov chain advanced once
// per publication; copies are dropped with LossGood in the Good state and
// LossBad in the Bad state. PGB and PBG are the per-publication transition
// probabilities Good→Bad and Bad→Good, so the stationary Bad fraction is
// PGB/(PGB+PBG) and the mean Bad burst length is 1/PBG publications.
type GilbertElliott struct {
	PGB, PBG float64
	LossGood float64
	LossBad  float64

	s       Stream
	t       *Topology
	bad     []bool // per-edge chain state
	dropped counter
}

// Name implements Fault.
func (g *GilbertElliott) Name() string {
	return fmt.Sprintf("ge(%g:%g:%g:%g)", g.PGB, g.PBG, g.LossGood, g.LossBad)
}

// Reset implements Fault.
func (g *GilbertElliott) Reset(t *Topology, s Stream) {
	g.s, g.t = s, t
	g.bad = make([]bool, t.NumEdges())
}

// Counts implements the counter aggregation.
func (g *GilbertElliott) Counts() []Count { return []Count{{"burst-lost", g.dropped.Load()}} }

// Transform implements LinkFault.
func (g *GilbertElliott) Transform(e int32, seq uint32, dels []Delivery) []Delivery {
	draws := g.s.onEdge(g.t, e, seq)
	u := draws.float(0)
	if g.bad[e] {
		if u < g.PBG {
			g.bad[e] = false
		}
	} else if u < g.PGB {
		g.bad[e] = true
	}
	p := g.LossGood
	if g.bad[e] {
		p = g.LossBad
	}
	if p <= 0 {
		return dels
	}
	kept := dels[:0]
	for _, d := range dels {
		if draws.float(1+uint64(d.Copy)) < p {
			g.dropped.Add(1)
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// Duplicate delivers an extra copy of each surviving copy independently
// with probability P. Duplicates inherit the current delay and value; a
// later Reorder or Corrupt layer perturbs them independently through their
// distinct copy index.
type Duplicate struct {
	P     float64
	s     Stream
	t     *Topology
	extra counter
}

// Name implements Fault.
func (d *Duplicate) Name() string { return fmt.Sprintf("dup(%g)", d.P) }

// Reset implements Fault.
func (d *Duplicate) Reset(t *Topology, s Stream) { d.s, d.t = s, t }

// Counts implements the counter aggregation.
func (d *Duplicate) Counts() []Count { return []Count{{"duplicated", d.extra.Load()}} }

// Transform implements LinkFault.
func (d *Duplicate) Transform(e int32, seq uint32, dels []Delivery) []Delivery {
	orig := len(dels)
	draws := d.s.onEdge(d.t, e, seq)
	for i := 0; i < orig; i++ {
		if len(dels) >= 250 {
			break // copy indexes are a byte; beyond this nothing new happens
		}
		if draws.float(uint64(dels[i].Copy)) < d.P {
			dup := dels[i]
			dup.Copy = uint8(len(dels))
			dels = append(dels, dup)
			d.extra.Add(1)
		}
	}
	return dels
}

// Reorder delays each copy independently with probability P by an extra
// 1..Bound rounds, letting newer publications overtake it — bounded
// reordering in the Dolev–Herman sense. The receiver applies whatever
// arrives last, so an overtaken message genuinely rolls a view back to a
// stale value when it lands.
type Reorder struct {
	P     float64
	Bound int32
	s     Stream
	t     *Topology
	moved counter
}

// Name implements Fault.
func (r *Reorder) Name() string { return fmt.Sprintf("reorder(%g:%d)", r.P, r.Bound) }

// Reset implements Fault.
func (r *Reorder) Reset(t *Topology, s Stream) { r.s, r.t = s, t }

// Counts implements the counter aggregation.
func (r *Reorder) Counts() []Count { return []Count{{"reordered", r.moved.Load()}} }

// Transform implements LinkFault.
func (r *Reorder) Transform(e int32, seq uint32, dels []Delivery) []Delivery {
	bound := max(r.Bound, 1)
	draws := r.s.onEdge(r.t, e, seq)
	for i := range dels {
		if draws.float(uint64(dels[i].Copy)) < r.P {
			jitter := 1 + int32(draws.at(256+uint64(dels[i].Copy))%uint64(bound))
			dels[i].Delay += jitter
			r.moved.Add(1)
		}
	}
	return dels
}

// Corrupt replaces each copy's payload independently with probability P by
// a uniform value from the sender's state domain — transient message
// corruption that keeps views in-domain (algorithms never observe an
// impossible neighbor state, exactly as when a neighbor's memory itself is
// hit by a transient fault).
type Corrupt struct {
	P       float64
	s       Stream
	t       *Topology
	flipped counter
}

// Name implements Fault.
func (c *Corrupt) Name() string { return fmt.Sprintf("corrupt(%g)", c.P) }

// Reset implements Fault.
func (c *Corrupt) Reset(t *Topology, s Stream) { c.s, c.t = s, t }

// Counts implements the counter aggregation.
func (c *Corrupt) Counts() []Count { return []Count{{"corrupted", c.flipped.Load()}} }

// Transform implements LinkFault.
func (c *Corrupt) Transform(e int32, seq uint32, dels []Delivery) []Delivery {
	draws := c.s.onEdge(c.t, e, seq)
	for i := range dels {
		if draws.float(uint64(dels[i].Copy)) < c.P {
			dom := uint64(c.t.domain[c.t.sender[e]])
			dels[i].Value = int32(draws.at(256+uint64(dels[i].Copy)) % dom)
			c.flipped.Add(1)
		}
	}
	return dels
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
