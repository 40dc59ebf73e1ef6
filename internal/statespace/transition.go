package statespace

import (
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// TransitionSystem is the analysis-facing contract of a Space: a weighted
// CSR graph over dense state ids with a legitimacy vector, the memoized
// shared passes (predecessor view, backward distances to L, condensation
// of the illegitimate subgraph), and configuration decoding. The memos
// rely on the system never changing once built. The checker's closure,
// convergence and lasso passes, the Markov chain (markov.FromSpace) and the
// core decision procedure all run against this interface, so every analysis
// works on whichever set of states was explored — the full index range or
// the forward closure of a seed set — without knowing which.
type TransitionSystem interface {
	// Algorithm returns the explored algorithm.
	Algorithm() protocol.Algorithm
	// Policy returns the scheduler policy the system was explored under.
	Policy() scheduler.Policy
	// NumStates returns the number of states of the system.
	NumStates() int
	// TotalConfigs returns the size of the full configuration space the
	// system lives in. Equal to NumStates for the full index range; for an
	// explored closure, NumStates/TotalConfigs is the explored fraction.
	TotalConfigs() int64
	// IsLegit reports whether state s is legitimate.
	IsLegit(s int) bool
	// LegitSet returns the per-state legitimacy vector. The slice aliases
	// the system; callers must not modify it.
	LegitSet() []bool
	// PoolWorkers returns the worker-pool size analyses over this system
	// should run on (the resolved exploration pool size).
	PoolWorkers() int
	// Succ returns the successor state indexes of s, deduplicated and
	// sorted ascending. The slice aliases the system.
	Succ(s int) []int32
	// Prob returns the transition probabilities aligned with Succ(s). The
	// slice aliases the system.
	Prob(s int) []float64
	// IsTerminal reports whether state s has no successors.
	IsTerminal(s int) bool
	// Edges returns the total number of stored transitions.
	Edges() int64
	// CSR exposes the raw forward CSR triple without copying. Callers must
	// not modify the slices.
	CSR() (off []int64, succ []int32, prob []float64)
	// Reverse returns the predecessor view, built on first use and cached.
	Reverse() Reverse
	// LegitDistances returns each state's shortest-path distance into L
	// (-1 where L is unreachable), computed on first use and cached. The
	// slice is shared; callers must not modify it.
	LegitDistances() []int32
	// IllegitSCC returns the component ids (-1 on L) and count of the
	// illegitimate subgraph's strongly connected components, in
	// reverse-topological order, computed on first use and cached. The
	// slice is shared; callers must not modify it.
	IllegitSCC() ([]int32, int)
	// Config decodes state index s into a fresh configuration.
	Config(s int) protocol.Configuration
	// ConfigInto decodes state index s into dst (allocating only when dst
	// is nil or too short) and returns it, so sweeping analyses reuse one
	// decode buffer.
	ConfigInto(s int, dst protocol.Configuration) protocol.Configuration
	// StateOf returns the state index of cfg within the system. ok is
	// false when cfg is not part of the system — possible only for an
	// explored closure (the full range contains every configuration).
	StateOf(cfg protocol.Configuration) (int32, bool)
}

var _ TransitionSystem = (*Space)(nil)

// Algorithm implements TransitionSystem.
func (sp *Space) Algorithm() protocol.Algorithm { return sp.Alg }

// Policy implements TransitionSystem.
func (sp *Space) Policy() scheduler.Policy { return sp.Pol }

// NumStates implements TransitionSystem.
func (sp *Space) NumStates() int { return sp.States }

// TotalConfigs implements TransitionSystem: the size of the full index
// range the space lives in.
func (sp *Space) TotalConfigs() int64 { return sp.Enc.Total() }

// IsLegit implements TransitionSystem.
func (sp *Space) IsLegit(s int) bool { return sp.Legit[s] }

// LegitSet implements TransitionSystem.
func (sp *Space) LegitSet() []bool { return sp.Legit }

// PoolWorkers implements TransitionSystem.
func (sp *Space) PoolWorkers() int { return sp.Workers }

// ConfigInto implements TransitionSystem.
func (sp *Space) ConfigInto(s int, dst protocol.Configuration) protocol.Configuration {
	return sp.Enc.Decode(sp.GlobalIndex(s), dst)
}

// StateOf implements TransitionSystem.
func (sp *Space) StateOf(cfg protocol.Configuration) (int32, bool) {
	l := sp.LocalIndex(sp.Enc.Encode(cfg))
	return l, l >= 0
}
