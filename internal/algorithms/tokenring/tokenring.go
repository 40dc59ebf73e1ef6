// Package tokenring implements Algorithm 1 of the paper: the token
// circulation protocol of Beauquier, Gradinariu and Johnen on anonymous
// unidirectional rings.
//
// Every process p maintains one counter dt_p in [0, mN) where mN is the
// smallest integer that does not divide the ring size N. Process p holds a
// token iff
//
//	Token(p) ≡ dt_p ≠ (dt_Pred(p) + 1) mod mN
//
// and its single action passes the token to its successor:
//
//	A :: Token(p) → dt_p ← (dt_Pred(p) + 1) mod mN
//
// Because mN does not divide N, at least one token always exists (Lemma 4);
// the legitimate configurations are exactly those with a single token.
// The protocol is deterministically weak-stabilizing under the distributed
// strongly fair scheduler (Theorem 2) but not deterministically
// self-stabilizing (Theorem 6 exhibits a strongly fair two-token execution
// that never converges).
package tokenring

import (
	"fmt"

	"weakstab/internal/graph"
	"weakstab/internal/protocol"
)

// ActionPass is the id of the unique action A (PassToken).
const ActionPass = 0

// Algorithm is Algorithm 1 on a unidirectional ring of n processes with
// counter modulus m. Process p's predecessor is (p-1) mod n, so tokens
// travel in ascending id order.
type Algorithm struct {
	g *graph.Graph
	n int
	m int
}

var (
	_ protocol.Algorithm       = (*Algorithm)(nil)
	_ protocol.Deterministic   = (*Algorithm)(nil)
	_ protocol.LegitEnumerator = (*Algorithm)(nil)
)

// MN returns the smallest integer >= 2 that does not divide n. This is the
// counter modulus the paper proves space-optimal for token circulation
// under a distributed scheduler. n must be positive.
func MN(n int) int {
	m := 2
	for n%m == 0 {
		m++
	}
	return m
}

// New returns Algorithm 1 on a ring of n >= 3 processes with the canonical
// modulus MN(n).
func New(n int) (*Algorithm, error) {
	return NewWithModulus(n, MN(n))
}

// NewWithModulus returns Algorithm 1 on a ring of n >= 3 processes with an
// explicit counter modulus m >= 2. Choosing m that divides n breaks
// Lemma 4: the configuration space then contains token-free terminal
// configurations. This constructor exists for the ablation experiments;
// production users should call New.
func NewWithModulus(n, m int) (*Algorithm, error) {
	if n < 3 {
		return nil, fmt.Errorf("tokenring: ring size must be >= 3, got %d", n)
	}
	if m < 2 {
		return nil, fmt.Errorf("tokenring: modulus must be >= 2, got %d", m)
	}
	g, err := graph.Ring(n)
	if err != nil {
		return nil, fmt.Errorf("tokenring: %w", err)
	}
	return &Algorithm{g: g, n: n, m: m}, nil
}

// Name implements protocol.Algorithm.
func (a *Algorithm) Name() string { return fmt.Sprintf("tokenring(n=%d,m=%d)", a.n, a.m) }

// Graph implements protocol.Algorithm.
func (a *Algorithm) Graph() *graph.Graph { return a.g }

// Modulus returns the counter modulus m.
func (a *Algorithm) Modulus() int { return a.m }

// StateCount implements protocol.Algorithm: dt_p ranges over [0, m).
func (a *Algorithm) StateCount(int) int { return a.m }

// Pred returns the ring predecessor of p.
func (a *Algorithm) Pred(p int) int { return (p - 1 + a.n) % a.n }

// HasToken reports whether p satisfies the Token predicate in cfg.
func (a *Algorithm) HasToken(cfg protocol.Configuration, p int) bool {
	return cfg[p] != (cfg[a.Pred(p)]+1)%a.m
}

// TokenHolders returns the processes holding a token in cfg, ascending.
func (a *Algorithm) TokenHolders(cfg protocol.Configuration) []int {
	var out []int
	for p := 0; p < a.n; p++ {
		if a.HasToken(cfg, p) {
			out = append(out, p)
		}
	}
	return out
}

// EnabledAction implements protocol.Algorithm: action A is enabled iff p
// holds a token.
func (a *Algorithm) EnabledAction(cfg protocol.Configuration, p int) int {
	if a.HasToken(cfg, p) {
		return ActionPass
	}
	return protocol.Disabled
}

// Outcomes implements protocol.Algorithm.
func (a *Algorithm) Outcomes(cfg protocol.Configuration, p, action int) []protocol.Outcome {
	return protocol.Det(a.DeterministicExecute(cfg, p, action))
}

// DeterministicExecute implements protocol.Deterministic: PassToken sets
// dt_p to (dt_Pred(p) + 1) mod m.
func (a *Algorithm) DeterministicExecute(cfg protocol.Configuration, p, _ int) int {
	return (cfg[a.Pred(p)] + 1) % a.m
}

// ActionName implements protocol.Algorithm.
func (a *Algorithm) ActionName(int) string { return "A(pass-token)" }

// Legitimate implements protocol.Algorithm: exactly one token holder
// (the set LCSET of Definition 9).
func (a *Algorithm) Legitimate(cfg protocol.Configuration) bool {
	count := 0
	for p := 0; p < a.n; p++ {
		if a.HasToken(cfg, p) {
			count++
			if count > 1 {
				return false
			}
		}
	}
	return count == 1
}

// EnumerateLegitimate implements protocol.LegitEnumerator: the legitimate
// set in closed form, without scanning the m^n index range. A single-token
// configuration is determined by its token holder p and the counter value v
// there: the consistency dt_q = dt_Pred(q)+1 (mod m) must hold at every
// q ≠ p, so dt increases by one along the ring starting from dt_p = v, and
// p itself violates it precisely because m does not divide n. Conversely,
// when m divides n that chain closes token-free — summing the consistency
// constraints around the ring shows a single token requires n ≢ 0 (mod m)
// — so L is empty and nothing is yielded (the Lemma 4 ablation case).
// |L| = n·m otherwise, with every (p, v) pair yielding a distinct
// configuration. The yielded slice is reused between calls.
func (a *Algorithm) EnumerateLegitimate(yield func(protocol.Configuration) bool) {
	if a.n%a.m == 0 {
		return
	}
	cfg := make(protocol.Configuration, a.n)
	for p := 0; p < a.n; p++ {
		for v := 0; v < a.m; v++ {
			for j := 0; j < a.n; j++ {
				cfg[(p+j)%a.n] = (v + j) % a.m
			}
			if !yield(cfg) {
				return
			}
		}
	}
}

// LegitimateWithTokenAt returns the configuration in which dt increases by
// one (mod m) along the ring starting from dt_p = 0. Every process except p
// then satisfies the consistency dt_q = dt_Pred(q)+1, and p itself violates
// it precisely because m does not divide N — so the unique token sits at p.
// With an ablation modulus that divides N the returned configuration is
// token-free instead (Lemma 4 breaks), which the tests exercise.
func (a *Algorithm) LegitimateWithTokenAt(p int) protocol.Configuration {
	cfg := make(protocol.Configuration, a.n)
	for k := 0; k < a.n; k++ {
		cfg[(p+k)%a.n] = k % a.m
	}
	return cfg
}
