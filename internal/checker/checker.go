// Package checker decides the paper's stabilization properties exactly by
// exhaustive exploration of the finite configuration space of an algorithm
// under a scheduler policy:
//
//   - strong closure (Definitions 1–3): every step from a legitimate
//     configuration leads to a legitimate configuration;
//   - possible convergence (Definition 3, weak stabilization): from every
//     configuration some execution reaches L;
//   - certain convergence (Definition 1, self-stabilization): every
//     execution reaches L — equivalently, the non-legitimate subgraph has
//     no terminal configuration and no cycle;
//   - strongly fair refutation (Theorems 2/6): a cycle through illegitimate
//     configurations that activates every process it ever enables — an
//     infinite strongly fair execution that never converges.
//
// Every check is subspace-native: the checker runs over a
// *statespace.Space, so the same passes decide the properties of the full
// index range and of a frontier-explored closure (where the properties
// quantify over the reachable states only — sound for any forward-closed
// region, e.g. the k-fault ball's closure).
//
// Verdicts carry machine-checkable witnesses (paths and lassos) that the
// experiments and the stabcheck CLI print.
package checker

import (
	"math"
	"slices"

	"weakstab/internal/protocol"
	"weakstab/internal/statespace"
)

// Space is the checker's view of an explored space. It reads only the
// unweighted successor rows; the same space can simultaneously feed the
// Markov analysis through its weighted view (markov.FromSpace), so the
// configuration space is enumerated exactly once per analysis.
type Space struct {
	*statespace.Space
}

// FromSpace wraps an explored space — over the full index range or over
// a frontier-explored closure — in the checker view.
func FromSpace(ss *statespace.Space) *Space { return &Space{ss} }

// ClosureResult reports on the strong closure property.
type ClosureResult struct {
	Holds bool
	// From/To witness a violating step when Holds is false.
	From, To protocol.Configuration
}

// CheckClosure verifies strong closure: every successor of a legitimate
// state is legitimate.
func (sp *Space) CheckClosure() ClosureResult {
	legit := sp.LegitSet()
	for s := range legit {
		if !legit[s] {
			continue
		}
		for _, t := range sp.Succ(s) {
			if !legit[t] {
				return ClosureResult{From: sp.Config(s), To: sp.Config(int(t))}
			}
		}
	}
	return ClosureResult{Holds: true}
}

// ConvergenceResult reports on a convergence property.
type ConvergenceResult struct {
	Holds bool
	// Counterexample is a configuration from which the property fails
	// (no possible path to L, or the start of a diverging execution).
	Counterexample protocol.Configuration
	// Reason is a short human-readable explanation.
	Reason string
}

// CheckPossibleConvergence verifies Definition 3's possible convergence:
// from every configuration some execution reaches a legitimate
// configuration (reverse reachability from L).
func (sp *Space) CheckPossibleConvergence() ConvergenceResult {
	for s, d := range sp.LegitDistances() {
		if d < 0 {
			return ConvergenceResult{
				Counterexample: sp.Config(s),
				Reason:         "no execution from this configuration reaches L",
			}
		}
	}
	return ConvergenceResult{Holds: true}
}

// CheckCertainConvergence verifies Definition 1's certain convergence:
// every execution reaches L in finite time. It fails on the lowest-indexed
// divergence seed: an illegitimate terminal configuration (deadlock
// outside L) or an illegitimate configuration on a cycle outside L.
func (sp *Space) CheckCertainConvergence() ConvergenceResult {
	s := slices.Index(sp.divergenceSeeds(), true)
	switch {
	case s < 0:
		return ConvergenceResult{Holds: true}
	case sp.IsTerminal(s):
		return ConvergenceResult{Counterexample: sp.Config(s), Reason: "terminal configuration outside L"}
	default:
		return ConvergenceResult{Counterexample: sp.Config(s), Reason: "configuration on a cycle outside L"}
	}
}

// WitnessPath returns a shortest execution (as configurations) from the
// given configuration to a legitimate one, or nil if none exists (or, on a
// subspace, if the configuration was not explored). The first element is
// the start configuration.
func (sp *Space) WitnessPath(from protocol.Configuration) []protocol.Configuration {
	start, ok := sp.StateOf(from)
	if !ok {
		return nil
	}
	legit := sp.LegitSet()
	if legit[start] {
		return []protocol.Configuration{from.Clone()}
	}
	parent := make([]int32, sp.NumStates())
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[start] = -1
	queue := []int32{start}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range sp.Succ(int(s)) {
			if parent[t] != -2 {
				continue
			}
			parent[t] = s
			if legit[t] {
				var rev []int32
				for cur := t; cur != -1; cur = parent[cur] {
					rev = append(rev, cur)
				}
				path := make([]protocol.Configuration, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, sp.Config(int(rev[i])))
				}
				return path
			}
			queue = append(queue, t)
		}
	}
	return nil
}

// WorstCaseWitness returns a shortest convergence path from the
// configuration farthest from L — the worst case of the instance's
// "optimistic" stabilization radius — or, when some configuration cannot
// reach L at all, (nil, that configuration). Unlike running WitnessPath
// per state (a forward BFS each, quadratic over the space), it reads the
// system's memoized backward distances to L and then reconstructs the
// path by greedy descent: from the worst state, any successor one step
// closer to L extends a shortest path. Deterministic: the worst state is
// the lowest-index state at maximal distance, and the descent takes the
// lowest-index qualifying successor (rows are sorted).
func (sp *Space) WorstCaseWitness() ([]protocol.Configuration, protocol.Configuration) {
	dist := sp.LegitDistances()
	worst := -1
	for s, d := range dist {
		if d < 0 {
			return nil, sp.Config(s)
		}
		if worst < 0 || d > dist[worst] {
			worst = s
		}
	}
	if worst < 0 {
		return nil, nil // empty system
	}
	path := make([]protocol.Configuration, 0, dist[worst]+1)
	for cur := worst; ; {
		path = append(path, sp.Config(cur))
		if dist[cur] == 0 {
			return path, nil
		}
		next := -1
		for _, t := range sp.Succ(cur) {
			if dist[t] == dist[cur]-1 {
				next = int(t)
				break
			}
		}
		if next < 0 {
			// Unreachable by the BFS invariant (every state at distance d>0
			// has a successor at d-1); guards against a corrupted system.
			return path, nil
		}
		cur = next
	}
}

// MaxShortestConvergencePath returns the maximum over all configurations
// of the shortest path length to L (the "optimistic" stabilization radius
// of the instance), or math.Inf(1) if some configuration cannot reach L.
// The distances are the system's memoized backward distances to L, the
// same vector that decides possible convergence.
func (sp *Space) MaxShortestConvergencePath() float64 {
	dist := sp.LegitDistances()
	maxD := int32(0)
	for _, d := range dist {
		if d < 0 {
			return math.Inf(1)
		}
		if d > maxD {
			maxD = d
		}
	}
	return float64(maxD)
}
