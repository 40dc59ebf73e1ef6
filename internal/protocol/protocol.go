// Package protocol defines the locally-shared-memory computation model of
// the paper: anonymous processes on a communication graph, each owning a
// bounded local state, executing guarded actions with composite atomicity
// (read all neighbors, evaluate guards, write own state in one atomic step).
//
// A distributed system is modeled as an Algorithm over a graph.Graph. A
// global Configuration assigns one local state (a small non-negative int)
// to every process. In each step a scheduler activates a non-empty subset
// of the enabled processes; every activated process executes its unique
// enabled action against the *pre-step* configuration.
//
// Deterministic algorithms return a single Outcome per action;
// probabilistic algorithms (P-variables in the paper's terminology) return
// a distribution over next local states.
package protocol

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"weakstab/internal/graph"
)

// Disabled is returned by Algorithm.EnabledAction for processes with no
// enabled guard.
const Disabled = -1

// Configuration is a global system state: Configuration[p] is the encoded
// local state of process p. Local states are algorithm-specific small
// non-negative integers in [0, StateCount(p)).
type Configuration []int

// Clone returns an independent copy of c.
func (c Configuration) Clone() Configuration {
	out := make(Configuration, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o assign the same state to every process.
func (c Configuration) Equal(o Configuration) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the configuration as "<s0 s1 ...>".
func (c Configuration) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, s := range c {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(s))
	}
	b.WriteByte('>')
	return b.String()
}

// Outcome is one probabilistic result of executing an action: the process's
// next local state together with its probability.
type Outcome struct {
	State int
	Prob  float64
}

// Det wraps a deterministic transition result as a single certain Outcome.
func Det(state int) []Outcome {
	return []Outcome{{State: state, Prob: 1}}
}

// Algorithm is a distributed algorithm in the guarded-action model. At most
// one action may be enabled per process per configuration (the paper's
// algorithms all have mutually exclusive guards); EnabledAction returns
// that action's id or Disabled.
//
// Implementations must be pure: EnabledAction and Outcomes must not mutate
// cfg and must depend only on the states of p and its neighbors (locality).
// The message-passing backend relies on this: once p's guard returns
// Disabled, netsim skips p until its own state or one of its cached
// neighbor values changes.
type Algorithm interface {
	// Name identifies the algorithm for traces and reports.
	Name() string
	// Graph returns the communication graph the algorithm runs on.
	Graph() *graph.Graph
	// StateCount returns the size of process p's state domain.
	StateCount(p int) int
	// EnabledAction returns the id of the unique enabled action at p in
	// cfg, or Disabled if p has no enabled action.
	EnabledAction(cfg Configuration, p int) int
	// Outcomes returns the distribution over p's next local state when p
	// executes the given enabled action in cfg. Probabilities must be
	// positive and sum to 1. Deterministic algorithms return Det(next).
	Outcomes(cfg Configuration, p int, action int) []Outcome
	// ActionName returns a short label for an action id (for traces).
	ActionName(action int) string
	// Legitimate reports whether cfg belongs to the algorithm's canonical
	// legitimate set L.
	Legitimate(cfg Configuration) bool
}

// Deterministic is implemented by algorithms whose every Outcome
// distribution is a point mass. The checker and Markov analyses use it to
// pick specialized paths; the transformer requires it.
type Deterministic interface {
	Algorithm
	// DeterministicExecute returns the unique next state for an enabled
	// action (equivalent to Outcomes(...)[0].State but allocation-free).
	DeterministicExecute(cfg Configuration, p int, action int) int
}

// LegitEnumerator is implemented by algorithms that know their legitimate
// set in closed form (token rings and Dijkstra's ring characterize L
// combinatorially). Exploration engines that only need L as a seed set —
// the checker's fault-ball enumeration above all — use it to skip the
// O(|configuration space|) legitimacy scan entirely, making ball-sized
// analyses strictly ball-sized.
//
// EnumerateLegitimate must yield exactly the configurations for which
// Legitimate returns true — no more, no fewer (duplicates are tolerated
// but wasteful) — and stop early when yield returns false. The yielded
// slice may be reused between calls; consumers must copy or encode it
// before yielding again.
type LegitEnumerator interface {
	Algorithm
	// EnumerateLegitimate calls yield for every legitimate configuration
	// until yield returns false or the set is exhausted.
	EnumerateLegitimate(yield func(Configuration) bool)
}

// EnabledProcesses returns the processes with an enabled action in cfg, in
// ascending order.
func EnabledProcesses(a Algorithm, cfg Configuration) []int {
	var out []int
	for p := 0; p < a.Graph().N(); p++ {
		if a.EnabledAction(cfg, p) != Disabled {
			out = append(out, p)
		}
	}
	return out
}

// IsTerminal reports whether no process is enabled in cfg.
func IsTerminal(a Algorithm, cfg Configuration) bool {
	for p := 0; p < a.Graph().N(); p++ {
		if a.EnabledAction(cfg, p) != Disabled {
			return false
		}
	}
	return true
}

// Step atomically executes one scheduler step: every process of subset that
// is enabled in cfg executes its enabled action, reading the pre-step
// configuration; probabilistic outcomes are sampled with rng (which may be
// nil for deterministic algorithms). Processes in subset that are disabled
// in cfg are ignored, so scripted schedulers can over-approximate.
//
// Step returns a fresh successor configuration; cfg is not modified.
func Step(a Algorithm, cfg Configuration, subset []int, rng *rand.Rand) Configuration {
	next := cfg.Clone()
	for _, p := range subset {
		act := a.EnabledAction(cfg, p)
		if act == Disabled {
			continue
		}
		next[p] = sample(a, cfg, p, act, rng)
	}
	return next
}

func sample(a Algorithm, cfg Configuration, p, act int, rng *rand.Rand) int {
	if d, ok := a.(Deterministic); ok {
		return d.DeterministicExecute(cfg, p, act)
	}
	outs := a.Outcomes(cfg, p, act)
	if len(outs) == 1 {
		return outs[0].State
	}
	x := rng.Float64()
	acc := 0.0
	for _, o := range outs {
		acc += o.Prob
		if x < acc {
			return o.State
		}
	}
	return outs[len(outs)-1].State
}

// WeightedConfig is a successor configuration with its probability, used to
// enumerate the joint outcome distribution of a step.
type WeightedConfig struct {
	Config Configuration
	Prob   float64
}

// StepOutcomes enumerates every possible successor of the step in which
// exactly the enabled members of subset execute, together with its
// probability (the product over activated processes of their outcome
// probabilities). For deterministic algorithms it returns a single entry
// with probability 1.
func StepOutcomes(a Algorithm, cfg Configuration, subset []int) []WeightedConfig {
	type proc struct {
		p    int
		outs []Outcome
	}
	next := cfg.Clone()
	var multi []proc
	total := 1
	for _, p := range subset {
		act := a.EnabledAction(cfg, p)
		if act == Disabled {
			continue
		}
		outs := a.Outcomes(cfg, p, act)
		if len(outs) == 1 {
			next[p] = outs[0].State
			continue
		}
		multi = append(multi, proc{p: p, outs: outs})
		total *= len(outs)
	}
	if total == 1 {
		return []WeightedConfig{{Config: next, Prob: 1}}
	}
	// An odometer over the multi-outcome processes, the last varying
	// fastest; each successor's probability multiplies in subset order.
	results := make([]WeightedConfig, total)
	slab := make([]int, total*len(cfg))
	odo := make([]int, len(multi))
	for r := range results {
		c := Configuration(slab[r*len(cfg) : (r+1)*len(cfg) : (r+1)*len(cfg)])
		copy(c, next)
		prob := 1.0
		for i, pr := range multi {
			o := pr.outs[odo[i]]
			c[pr.p] = o.State
			prob *= o.Prob
		}
		results[r] = WeightedConfig{Config: c, Prob: prob}
		for i := len(odo) - 1; i >= 0; i-- {
			if odo[i]++; odo[i] < len(multi[i].outs) {
				break
			}
			odo[i] = 0
		}
	}
	return results
}

// Encoder maps configurations to dense mixed-radix indexes in
// [0, Total()) and back, enabling array-indexed state-space exploration.
type Encoder struct {
	counts  []int
	weights []int64
	total   int64
}

// NewEncoder builds an Encoder for a's configuration space. It returns an
// error if any state domain is empty or the total space exceeds maxTotal
// (pass 0 for the default cap of 2^40 configurations).
func NewEncoder(a Algorithm, maxTotal int64) (*Encoder, error) {
	if maxTotal <= 0 {
		maxTotal = 1 << 40
	}
	n := a.Graph().N()
	counts := make([]int, n)
	weights := make([]int64, n)
	total := int64(1)
	for p := 0; p < n; p++ {
		counts[p] = a.StateCount(p)
		if counts[p] < 1 {
			return nil, fmt.Errorf("protocol: process %d has empty state domain", p)
		}
		weights[p] = total
		if total > maxTotal/int64(counts[p])+1 {
			return nil, fmt.Errorf("protocol: configuration space of %s exceeds %d", a.Name(), maxTotal)
		}
		total *= int64(counts[p])
		if total > maxTotal {
			return nil, fmt.Errorf("protocol: configuration space of %s exceeds %d", a.Name(), maxTotal)
		}
	}
	return &Encoder{counts: counts, weights: weights, total: total}, nil
}

// Total returns the number of configurations.
func (e *Encoder) Total() int64 { return e.total }

// Weight returns the mixed-radix weight of process p: changing p's local
// state by d changes the encoded index by d*Weight(p). Exploration engines
// use it to re-encode successors by delta instead of re-encoding the full
// configuration.
func (e *Encoder) Weight(p int) int64 { return e.weights[p] }

// Encode returns the dense index of cfg.
func (e *Encoder) Encode(cfg Configuration) int64 {
	var idx int64
	for p, s := range cfg {
		idx += int64(s) * e.weights[p]
	}
	return idx
}

// Decode writes the configuration with the given index into dst (allocating
// if dst is nil or too short) and returns it.
func (e *Encoder) Decode(idx int64, dst Configuration) Configuration {
	if len(dst) < len(e.counts) {
		dst = make(Configuration, len(e.counts))
	}
	dst = dst[:len(e.counts)]
	for p := range e.counts {
		dst[p] = int(idx % int64(e.counts[p]))
		idx /= int64(e.counts[p])
	}
	return dst
}

// DecodeNext advances dst, which must hold the decoding of some index
// idx, in place to the decoding of idx+1: a mixed-radix odometer
// increment, amortized O(1) versus Decode's per-process divisions.
// Exploration engines sweeping contiguous index ranges use it to decode
// each state from its predecessor. Incrementing past the last index wraps
// to the all-zero configuration.
func (e *Encoder) DecodeNext(dst Configuration) {
	for p := range e.counts {
		dst[p]++
		if dst[p] < e.counts[p] {
			return
		}
		dst[p] = 0
	}
}

// RandomConfiguration samples a configuration uniformly from a's space.
func RandomConfiguration(a Algorithm, rng *rand.Rand) Configuration {
	n := a.Graph().N()
	cfg := make(Configuration, n)
	for p := 0; p < n; p++ {
		cfg[p] = rng.Intn(a.StateCount(p))
	}
	return cfg
}

// Validate enumerates up to limit configurations (0 means all; an error is
// returned if the space is too large to enumerate under the internal cap)
// and checks model invariants: states in range, outcome probabilities
// positive and summing to 1, outcome states within the domain, and enabled
// actions stable under re-query. It returns the first violation found.
func Validate(a Algorithm, limit int64) error {
	enc, err := NewEncoder(a, 0)
	if err != nil {
		return err
	}
	total := enc.Total()
	if limit > 0 && total > limit {
		total = limit
	}
	cfg := make(Configuration, a.Graph().N())
	for idx := int64(0); idx < total; idx++ {
		cfg = enc.Decode(idx, cfg)
		for p := 0; p < a.Graph().N(); p++ {
			act := a.EnabledAction(cfg, p)
			if act == Disabled {
				continue
			}
			outs := a.Outcomes(cfg, p, act)
			if len(outs) == 0 {
				return fmt.Errorf("protocol: %s: no outcomes for enabled action %s at p=%d in %v",
					a.Name(), a.ActionName(act), p, cfg)
			}
			sum := 0.0
			for _, o := range outs {
				if o.Prob <= 0 {
					return fmt.Errorf("protocol: %s: non-positive probability %g at p=%d in %v",
						a.Name(), o.Prob, p, cfg)
				}
				if o.State < 0 || o.State >= a.StateCount(p) {
					return fmt.Errorf("protocol: %s: outcome state %d out of domain [0,%d) at p=%d in %v",
						a.Name(), o.State, a.StateCount(p), p, cfg)
				}
				sum += o.Prob
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("protocol: %s: outcome probabilities sum to %g at p=%d in %v",
					a.Name(), sum, p, cfg)
			}
			if a.EnabledAction(cfg, p) != act {
				return fmt.Errorf("protocol: %s: EnabledAction not stable at p=%d in %v", a.Name(), p, cfg)
			}
		}
	}
	return nil
}
