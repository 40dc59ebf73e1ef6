// Package scheduler implements the schedulers (daemons) of the paper as two
// complementary notions:
//
//   - Scheduler: an online selector that, given the enabled processes of the
//     current configuration, picks the non-empty activation subset of the
//     next step. Used by the Monte-Carlo simulator and the runtime.
//   - Policy: the set of activation subsets a scheduler may legally choose,
//     as position bitmasks over the enabled set (Subset maps a mask to
//     process ids), used by the exhaustive checker to enumerate all
//     possible steps, and by the Markov analysis which weights them
//     uniformly (Definition 6 of the paper: the "randomized scheduler"
//     chooses uniformly). A Policy is a value, one of exactly three.
//
// The paper's scheduler taxonomy maps as follows: the central scheduler is
// CentralPolicy/NewCentralRandomized, the distributed scheduler is
// DistributedPolicy/NewDistributedRandomized, and the synchronous scheduler
// is SynchronousPolicy/NewSynchronous — the distribution axis of the
// Dubois–Tixeuil taxonomy, which names exactly these three daemons, so
// they are the only values a Policy takes. Fairness (weak, strong, Gouda)
// is a property of infinite executions; package-level predicates decide
// them on finite lassos (cycles repeated forever).
package scheduler

import (
	"fmt"
	"math/bits"
	"math/rand"

	"weakstab/internal/protocol"
)

// Scheduler selects the activation subset of each step.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Select returns a non-empty subset of enabled, the processes that
	// execute in this step. enabled is sorted ascending and non-empty;
	// implementations must not retain or modify it. step is the 0-based
	// step number; cfg is the pre-step configuration (most schedulers
	// ignore it, adversaries may not).
	Select(step int, cfg protocol.Configuration, enabled []int, rng *rand.Rand) []int
}

// Synchronous activates every enabled process in every step.
type Synchronous struct{}

// NewSynchronous returns the synchronous scheduler.
func NewSynchronous() Synchronous { return Synchronous{} }

// Name implements Scheduler.
func (Synchronous) Name() string { return "synchronous" }

// Select implements Scheduler.
func (Synchronous) Select(_ int, _ protocol.Configuration, enabled []int, _ *rand.Rand) []int {
	out := make([]int, len(enabled))
	copy(out, enabled)
	return out
}

// CentralRandomized is the central randomized scheduler: each step activates
// exactly one enabled process chosen uniformly at random.
type CentralRandomized struct{}

// NewCentralRandomized returns the central randomized scheduler.
func NewCentralRandomized() CentralRandomized { return CentralRandomized{} }

// Name implements Scheduler.
func (CentralRandomized) Name() string { return "central-randomized" }

// Select implements Scheduler.
func (CentralRandomized) Select(_ int, _ protocol.Configuration, enabled []int, rng *rand.Rand) []int {
	return []int{enabled[rng.Intn(len(enabled))]}
}

// DistributedRandomized is the distributed randomized scheduler of
// Definition 6: each step activates a non-empty subset of the enabled
// processes chosen uniformly among all 2^k-1 non-empty subsets.
type DistributedRandomized struct{}

// NewDistributedRandomized returns the distributed randomized scheduler.
func NewDistributedRandomized() DistributedRandomized { return DistributedRandomized{} }

// Name implements Scheduler.
func (DistributedRandomized) Name() string { return "distributed-randomized" }

// Select implements Scheduler.
func (DistributedRandomized) Select(_ int, _ protocol.Configuration, enabled []int, rng *rand.Rand) []int {
	k := len(enabled)
	if k == 1 {
		return []int{enabled[0]}
	}
	if k <= 62 {
		// Uniform over [1, 2^k): every non-empty bitmask equally likely.
		mask := 1 + rng.Int63n((int64(1)<<uint(k))-1)
		out := make([]int, 0, k)
		for i := 0; i < k; i++ {
			if mask&(1<<uint(i)) != 0 {
				out = append(out, enabled[i])
			}
		}
		return out
	}
	// Rejection sampling for very wide enabled sets: per-process fair coins
	// conditioned on a non-empty result are uniform over non-empty subsets.
	for {
		out := make([]int, 0, k)
		for _, p := range enabled {
			if rng.Intn(2) == 1 {
				out = append(out, p)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// RoundRobin is a deterministic central scheduler that cycles through
// process ids, each step activating the next enabled process at or after
// the cursor. It is strongly fair on every execution it produces. The zero
// value starts at process 0.
type RoundRobin struct {
	cursor int
}

// NewRoundRobin returns a round-robin central scheduler starting at 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "round-robin" }

// Select implements Scheduler.
func (r *RoundRobin) Select(_ int, cfg protocol.Configuration, enabled []int, _ *rand.Rand) []int {
	n := len(cfg)
	for off := 0; off < n; off++ {
		p := (r.cursor + off) % n
		for _, q := range enabled {
			if q == p {
				r.cursor = (p + 1) % n
				return []int{p}
			}
		}
	}
	// enabled is non-empty by contract, so this is unreachable; return the
	// first enabled process defensively.
	return []int{enabled[0]}
}

// LexMin is a deterministic central scheduler that always activates the
// smallest enabled process id. It is unfair in general and useful as a
// worst-case adversary for algorithms with positional asymmetry.
type LexMin struct{}

// NewLexMin returns the lexicographic-minimum scheduler.
func NewLexMin() LexMin { return LexMin{} }

// Name implements Scheduler.
func (LexMin) Name() string { return "lex-min" }

// Select implements Scheduler.
func (LexMin) Select(_ int, _ protocol.Configuration, enabled []int, _ *rand.Rand) []int {
	return []int{enabled[0]}
}

// Scripted replays a fixed activation script. Step i activates the
// intersection of Script[i mod len(Script)] with the enabled set when Loop
// is true; without Loop, steps beyond the script fall back to activating
// all enabled processes. If the scripted subset contains no enabled
// process, all enabled processes are activated instead (keeping the
// non-empty contract). Scripted schedulers build the paper's adversarial
// counterexamples (Theorem 6, Figure 3).
type Scripted struct {
	Script [][]int
	Loop   bool
	name   string
}

// NewScripted returns a scripted scheduler with the given name (for
// reports), activation script and looping behavior.
func NewScripted(name string, script [][]int, loop bool) *Scripted {
	return &Scripted{Script: script, Loop: loop, name: name}
}

// Name implements Scheduler.
func (s *Scripted) Name() string {
	if s.name == "" {
		return "scripted"
	}
	return s.name
}

// Select implements Scheduler.
func (s *Scripted) Select(step int, _ protocol.Configuration, enabled []int, _ *rand.Rand) []int {
	if len(s.Script) == 0 || (!s.Loop && step >= len(s.Script)) {
		out := make([]int, len(enabled))
		copy(out, enabled)
		return out
	}
	want := s.Script[step%len(s.Script)]
	var out []int
	for _, p := range want {
		for _, q := range enabled {
			if p == q {
				out = append(out, p)
				break
			}
		}
	}
	if len(out) == 0 {
		out = make([]int, len(enabled))
		copy(out, enabled)
	}
	return out
}

// Func adapts a function to the Scheduler interface for ad-hoc adversaries.
type Func struct {
	Label string
	F     func(step int, cfg protocol.Configuration, enabled []int, rng *rand.Rand) []int
}

// Name implements Scheduler.
func (f Func) Name() string {
	if f.Label == "" {
		return "func"
	}
	return f.Label
}

// Select implements Scheduler.
func (f Func) Select(step int, cfg protocol.Configuration, enabled []int, rng *rand.Rand) []int {
	return f.F(step, cfg, enabled, rng)
}

// Policy is one of the paper's three daemons: CentralPolicy,
// DistributedPolicy or SynchronousPolicy. It enumerates the activation
// subsets the daemon permits (SubsetMasks): the exhaustive checker
// explores every subset; the Markov analysis weights them uniformly
// (randomized scheduler). Every policy of the paper depends only on how
// many processes are enabled, not on which, so a subset is a position
// bitmask over the enabled set; Subset turns one into process ids.
//
// The three are the only values a Policy takes, so a consumer such as the
// explorer may switch on the policy itself and derive the subsets instead
// of reading the mask list. The zero value, nil, is no daemon.
type Policy = *daemon

// daemon is what a Policy points to; the three below are all there are.
type daemon struct{ name string }

// The three daemons.
var (
	// CentralPolicy permits exactly the singletons (the paper's central
	// scheduler).
	CentralPolicy Policy = &daemon{"central"}
	// DistributedPolicy permits every non-empty subset (the paper's
	// distributed scheduler).
	DistributedPolicy Policy = &daemon{"distributed"}
	// SynchronousPolicy permits only the full enabled set (the paper's
	// synchronous scheduler).
	SynchronousPolicy Policy = &daemon{"synchronous"}
)

// DistributedLimit is the widest enabled set the distributed daemon
// enumerates: 2^20 subsets per configuration is already beyond practical
// exhaustive checking.
const DistributedLimit = 20

// Subset returns the processes of enabled that mask selects, in enabled's
// order.
func Subset(mask uint64, enabled []int) []int {
	sub := make([]int, 0, bits.OnesCount64(mask))
	for i, p := range enabled {
		if mask&(1<<uint(i)) != 0 {
			sub = append(sub, p)
		}
	}
	return sub
}

// Name identifies the policy: "central", "distributed" or "synchronous".
func (d *daemon) Name() string { return d.name }

// SubsetMasks returns the allowed activation subsets of any k-element
// enabled set (k >= 1) as bitmasks over positions [0,k): bit i selects the
// i-th enabled process. Every mask is non-empty. The central daemon gives
// the k singletons in position order, the distributed daemon all 2^k-1
// masks in ascending order (refusing, rather than drowning in, enabled
// sets wider than DistributedLimit), the synchronous daemon the full mask.
func (d *daemon) SubsetMasks(k int) []uint64 {
	switch d {
	case CentralPolicy:
		if k <= 64 {
			out := make([]uint64, k)
			for i := range out {
				out[i] = 1 << uint(i)
			}
			return out
		}
	case DistributedPolicy:
		if k <= DistributedLimit {
			total := uint64(1)<<uint(k) - 1
			out := make([]uint64, total)
			for m := uint64(1); m <= total; m++ {
				out[m-1] = m
			}
			return out
		}
	case SynchronousPolicy:
		if k < 64 {
			return []uint64{uint64(1)<<uint(k) - 1}
		}
	}
	panic(fmt.Sprintf("scheduler: %s SubsetMasks on %d enabled processes", d.name, k))
}

var (
	_ Scheduler = Synchronous{}
	_ Scheduler = CentralRandomized{}
	_ Scheduler = DistributedRandomized{}
	_ Scheduler = (*RoundRobin)(nil)
	_ Scheduler = LexMin{}
	_ Scheduler = (*Scripted)(nil)
	_ Scheduler = Func{}
)
