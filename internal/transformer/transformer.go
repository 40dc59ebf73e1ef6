// Package transformer implements the paper's §4 construction: turning any
// deterministic weak-stabilizing algorithm into a probabilistic
// self-stabilizing one by guarding every action with a coin toss,
//
//	Trans(A) :: Guard_A → B_i ← Rand(true,false); if B_i then S_A
//
// Theorems 8 and 9 prove the transformed system probabilistically
// self-stabilizing under the synchronous and the distributed randomized
// schedulers. The essence: an activated process executes its action only
// when it wins the toss, so every activation subset of the original system
// — including the fully synchronous one some protocols need (Algorithm 3)
// and the symmetry-breaking asymmetric ones (Figure 3) — occurs with
// positive probability in every step.
//
// Two faithful variants are provided:
//
//   - New (projected): the coin is folded into the outcome distribution —
//     an activated process moves to its action's result with probability p
//     and keeps its state with probability 1-p. The per-process state space
//     is unchanged.
//   - NewExplicit: the boolean B of the paper is materialized in the state
//     (doubling each domain), exactly as written in the transformation.
//     Legitimacy is defined by projection, as in Definition 7 (LProb).
//
// The two variants are bisimilar modulo the projection that erases B; the
// package tests verify their induced Markov chains have identical hitting
// times. The coin bias p is configurable (the paper fixes p = 1/2);
// experiment E12c ablates it.
//
// Applied to Algorithm 1, the transformer yields a probabilistic
// self-stabilizing token circulation with log(mN) bits per process — the
// construction the paper's §3.1 attributes to Datta, Gradinariu and
// Tixeuil (reference [9]) as matching the space lower bound of Beauquier
// et al. for randomized token circulation under a distributed scheduler.
package transformer

import (
	"fmt"

	"weakstab/internal/graph"
	"weakstab/internal/protocol"
)

// Algorithm is the projected transformed system Trans(inner).
type Algorithm struct {
	inner protocol.Deterministic
	p     float64
}

var _ protocol.Algorithm = (*Algorithm)(nil)

// New wraps a deterministic algorithm with fair coin tosses (p = 1/2).
func New(inner protocol.Deterministic) *Algorithm {
	a, err := NewBiased(inner, 0.5)
	if err != nil {
		// 0.5 is always a valid bias; this cannot happen.
		panic(err)
	}
	return a
}

// NewBiased wraps a deterministic algorithm with tosses that succeed with
// probability p, 0 < p < 1.
func NewBiased(inner protocol.Deterministic, p float64) (*Algorithm, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("transformer: coin bias must be in (0,1), got %g", p)
	}
	return &Algorithm{inner: inner, p: p}, nil
}

// Name implements protocol.Algorithm.
func (a *Algorithm) Name() string {
	return fmt.Sprintf("trans(%s,p=%g)", a.inner.Name(), a.p)
}

// Graph implements protocol.Algorithm.
func (a *Algorithm) Graph() *graph.Graph { return a.inner.Graph() }

// StateCount implements protocol.Algorithm.
func (a *Algorithm) StateCount(p int) int { return a.inner.StateCount(p) }

// EnabledAction implements protocol.Algorithm: guards are unchanged.
func (a *Algorithm) EnabledAction(cfg protocol.Configuration, p int) int {
	return a.inner.EnabledAction(cfg, p)
}

// Outcomes implements protocol.Algorithm: the action's result with
// probability p, the unchanged state with probability 1-p.
func (a *Algorithm) Outcomes(cfg protocol.Configuration, proc, action int) []protocol.Outcome {
	next := a.inner.DeterministicExecute(cfg, proc, action)
	if next == cfg[proc] {
		return protocol.Det(next)
	}
	return []protocol.Outcome{
		{State: next, Prob: a.p},
		{State: cfg[proc], Prob: 1 - a.p},
	}
}

// ActionName implements protocol.Algorithm.
func (a *Algorithm) ActionName(action int) string {
	return "trans:" + a.inner.ActionName(action)
}

// Legitimate implements protocol.Algorithm: unchanged.
func (a *Algorithm) Legitimate(cfg protocol.Configuration) bool {
	return a.inner.Legitimate(cfg)
}

// Explicit is the transformed system with the paper's boolean B
// materialized: process state encodes (inner state, B) as inner*2 + B.
type Explicit struct {
	inner protocol.Deterministic
	p     float64
}

var _ protocol.Algorithm = (*Explicit)(nil)

// NewExplicit wraps a deterministic algorithm with fair coin tosses and an
// explicit coin variable per process.
func NewExplicit(inner protocol.Deterministic) *Explicit {
	e, err := NewExplicitBiased(inner, 0.5)
	if err != nil {
		panic(err) // 0.5 is always valid
	}
	return e
}

// NewExplicitBiased is NewExplicit with toss success probability p ∈ (0,1).
func NewExplicitBiased(inner protocol.Deterministic, p float64) (*Explicit, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("transformer: coin bias must be in (0,1), got %g", p)
	}
	return &Explicit{inner: inner, p: p}, nil
}

// Name implements protocol.Algorithm.
func (e *Explicit) Name() string {
	return fmt.Sprintf("trans-explicit(%s,p=%g)", e.inner.Name(), e.p)
}

// Graph implements protocol.Algorithm.
func (e *Explicit) Graph() *graph.Graph { return e.inner.Graph() }

// StateCount implements protocol.Algorithm: inner domain times the coin.
func (e *Explicit) StateCount(p int) int { return e.inner.StateCount(p) * 2 }

// Project returns the inner-state component of p's state.
func (e *Explicit) Project(s int) int { return s / 2 }

// Coin returns the B component of p's state.
func (e *Explicit) Coin(s int) bool { return s%2 == 1 }

// Encode packs (inner state, B).
func (e *Explicit) Encode(inner int, b bool) int {
	s := inner * 2
	if b {
		s++
	}
	return s
}

// ProjectConfiguration strips the coin bits, yielding a configuration of
// the inner algorithm.
func (e *Explicit) ProjectConfiguration(cfg protocol.Configuration) protocol.Configuration {
	out := make(protocol.Configuration, len(cfg))
	for i, s := range cfg {
		out[i] = e.Project(s)
	}
	return out
}

// EnabledAction implements protocol.Algorithm: the guard of the inner
// algorithm evaluated on the projection (B is never read by guards).
func (e *Explicit) EnabledAction(cfg protocol.Configuration, p int) int {
	return e.inner.EnabledAction(e.ProjectConfiguration(cfg), p)
}

// Outcomes implements protocol.Algorithm: B records the toss; the inner
// state advances only on a win.
func (e *Explicit) Outcomes(cfg protocol.Configuration, proc, action int) []protocol.Outcome {
	proj := e.ProjectConfiguration(cfg)
	next := e.inner.DeterministicExecute(proj, proc, action)
	return []protocol.Outcome{
		{State: e.Encode(next, true), Prob: e.p},
		{State: e.Encode(proj[proc], false), Prob: 1 - e.p},
	}
}

// ActionName implements protocol.Algorithm.
func (e *Explicit) ActionName(action int) string {
	return "trans-explicit:" + e.inner.ActionName(action)
}

// Legitimate implements protocol.Algorithm: Definition 7 — a configuration
// is legitimate iff its projection is legitimate for the inner algorithm.
func (e *Explicit) Legitimate(cfg protocol.Configuration) bool {
	return e.inner.Legitimate(e.ProjectConfiguration(cfg))
}
