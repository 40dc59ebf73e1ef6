package checker

// Direct decision of Gouda's strong fairness (Theorem 5) on lassos. An
// infinite execution that repeats a cycle of configurations forever is
// Gouda fair iff for every transition γ→γ' of the system with γ on the
// cycle, the step γ→γ' appears in the cycle: configurations occurring
// infinitely often must have each of their outgoing transitions taken
// infinitely often.
//
// This decides Theorem 6 without the Theorem 7 detour: the strongly fair
// two-token lasso of the token ring is NOT Gouda fair (it omits the
// merging transitions), and in fact no diverging lasso can be Gouda fair
// when the system is weak-stabilizing — which is exactly Gouda's
// Theorem 5.

import (
	"weakstab/internal/protocol"
)

// GoudaFairLasso reports whether repeating the given configuration cycle
// forever is Gouda fair: every successor of every cycle configuration is
// reached by some step of the cycle. The cycle is the sequence of
// configurations visited; step i goes Cycle[i] -> Cycle[(i+1) % len].
func (sp *Space) GoudaFairLasso(cycle []protocol.Configuration) bool {
	if len(cycle) == 0 {
		return true
	}
	// Steps taken within the lasso, per source state.
	taken := map[int32]map[int32]bool{}
	for i, cfg := range cycle {
		s, ok := sp.StateOf(cfg)
		if !ok {
			return false // outside the explored system: not a lasso of it
		}
		t, ok := sp.StateOf(cycle[(i+1)%len(cycle)])
		if !ok {
			return false
		}
		if taken[s] == nil {
			taken[s] = map[int32]bool{}
		}
		taken[s][t] = true
	}
	for s, outs := range taken {
		for _, succ := range sp.Succ(int(s)) {
			if !outs[succ] {
				return false
			}
		}
	}
	return true
}

// NoGoudaFairDivergence verifies Gouda's Theorem 5 mechanically on this
// space: when possible convergence holds, no illegitimate configuration
// can lie on a Gouda-fair diverging lasso, because Gouda fairness forces
// every transition out of recurrent configurations — including the ones
// leading toward L. Concretely it checks that within every strongly
// connected component of the illegitimate subgraph there is at least one
// state with an edge leaving the component (toward L or toward another
// component), so the "all transitions taken" requirement always breaks
// divergence. It returns a component's member configuration if the check
// fails (which would refute Theorem 5 on this instance).
func (sp *Space) NoGoudaFairDivergence() (protocol.Configuration, bool) {
	toL := sp.LegitDistances()
	cond := sp.IllegitSCC()
	legit := sp.LegitSet()
	for c := 0; c < cond.Count(); c++ {
		states := cond.Component(c)
		if !sp.componentHasCycle(states) {
			continue
		}
		cid := int32(c)
		escapes := false
		for _, s := range states {
			if toL[s] < 0 {
				// L unreachable: possible convergence fails; a Gouda-fair
				// diverging lasso exists trivially inside this component.
				return sp.Config(int(s)), false
			}
			for _, t := range sp.Succ(int(s)) {
				if legit[t] || cond.Comp[t] != cid {
					escapes = true
					break
				}
			}
			if escapes {
				break
			}
		}
		if !escapes {
			return sp.Config(int(states[0])), false
		}
	}
	return nil, true
}
