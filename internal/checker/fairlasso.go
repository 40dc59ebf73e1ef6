package checker

import (
	"slices"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// FairLasso is a witness refuting self-stabilization under the strongly
// fair scheduler: a closed walk through illegitimate configurations that
// activates every process it ever enables, so that repeating it forever is
// a strongly fair execution never reaching L.
type FairLasso struct {
	Found bool
	// Cycle holds the walk's configurations; step i goes from Cycle[i] to
	// Cycle[i+1], and the walk closes from the last back to the first.
	Cycle []protocol.Configuration
	// Records are the per-step enabled/chosen sets of the walk.
	Records []scheduler.StepRecord
}

// FindStronglyFairLasso searches the illegitimate subgraph for a strongly
// fair non-converging lasso. It decomposes the subgraph into strongly
// connected components and, for each component containing a cycle, builds a
// closed walk covering every internal edge; if that walk activates every
// process it enables, it is returned as a witness.
//
// The check is sufficient but not necessary: a component may still contain
// a fair sub-cycle that the all-edges walk misses. For the paper's
// instances (Theorem 6's two-token rings, Figure 3's chain) the walk is
// found. Only deterministic algorithms are supported (the activation subset
// of an edge must be recoverable).
func (sp *Space) FindStronglyFairLasso() FairLasso {
	det, ok := sp.Algorithm().(protocol.Deterministic)
	if !ok {
		return FairLasso{}
	}
	// The condensation of the illegitimate subgraph is the system's memo,
	// shared with the Markov solve; on a frontier-explored closure it
	// covers the reachable subgraph only, which BuildFromContext closes
	// under successors before sealing.
	cond := sp.IllegitSCC()
	// Iterate components in ascending id order, members in ascending
	// state order, so witnesses are deterministic across runs.
	parent := make([]int32, len(cond.Comp)) // pathWithin's scratch, -1 between calls
	for i := range parent {
		parent[i] = -1
	}
	for c := 0; c < cond.Count(); c++ {
		states := cond.Component(c)
		if !sp.componentHasCycle(states) {
			continue
		}
		if lasso := sp.tryComponentWalk(det, states, cond.Comp, parent); lasso.Found {
			return lasso
		}
	}
	return FairLasso{}
}

// componentHasCycle reports whether the component contains a cycle: more
// than one state, or a single state with a self-loop.
func (sp *Space) componentHasCycle(states []int32) bool {
	return len(states) > 1 || sp.hasSelfLoop(states[0])
}

// hasSelfLoop reports whether s is among its own successors.
func (sp *Space) hasSelfLoop(s int32) bool {
	return slices.Contains(sp.Succ(int(s)), s)
}

// tryComponentWalk builds a closed walk covering every internal edge of the
// component and checks strong fairness of the induced records. parent is
// pathWithin's scratch space.
func (sp *Space) tryComponentWalk(det protocol.Deterministic, states []int32, comp []int32, parent []int32) FairLasso {
	cid := comp[states[0]]
	// Collect internal edges.
	type edge struct{ from, to int32 }
	var edges []edge
	for _, s := range states {
		for _, t := range sp.Succ(int(s)) {
			if comp[t] == cid {
				edges = append(edges, edge{from: s, to: t})
			}
		}
	}
	if len(edges) == 0 {
		return FairLasso{}
	}
	// Build the walk: start anywhere, repeatedly path to the next uncovered
	// edge's source, traverse it, finally path back to the start.
	start := edges[0].from
	cur := start
	var walk []int32
	walk = append(walk, cur)
	for _, e := range edges {
		for _, step := range sp.pathWithin(cur, e.from, comp, parent) {
			walk = append(walk, step)
		}
		walk = append(walk, e.to)
		cur = e.to
	}
	for _, step := range sp.pathWithin(cur, start, comp, parent) {
		walk = append(walk, step)
	}
	// Induce step records: for each consecutive pair, find an activation
	// subset producing it.
	var records []scheduler.StepRecord
	var cycle []protocol.Configuration
	for i := 0; i+1 < len(walk); i++ {
		s, t := walk[i], walk[i+1]
		cfg := sp.Config(int(s))
		enabled := protocol.EnabledProcesses(sp.Algorithm(), cfg)
		chosen := sp.findSubset(det, cfg, enabled, t)
		if chosen == nil {
			return FairLasso{}
		}
		records = append(records, scheduler.StepRecord{Enabled: enabled, Chosen: chosen})
		cycle = append(cycle, cfg)
	}
	if !scheduler.StronglyFairCycle(records) {
		return FairLasso{}
	}
	return FairLasso{Found: true, Cycle: cycle, Records: records}
}

// pathWithin returns the interior+destination states of a shortest path
// from src to dst staying inside src's component (empty if src == dst).
// parent is scratch space over all states, -1 on entry and restored to -1
// on return.
func (sp *Space) pathWithin(src, dst int32, comp []int32, parent []int32) []int32 {
	if src == dst {
		return nil
	}
	cid := comp[src]
	parent[src] = src // seen
	queue := []int32{src}
	defer func() {
		for _, s := range queue {
			parent[s] = -1
		}
	}()
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		for _, t := range sp.Succ(int(s)) {
			if comp[t] != cid || parent[t] >= 0 {
				continue
			}
			parent[t] = s
			queue = append(queue, t)
			if t == dst {
				var rev []int32
				for cur := t; cur != src; cur = parent[cur] {
					rev = append(rev, cur)
				}
				slices.Reverse(rev)
				return rev
			}
		}
	}
	return nil
}

// findSubset returns an activation subset of enabled that steps cfg to the
// state index want, or nil.
func (sp *Space) findSubset(det protocol.Deterministic, cfg protocol.Configuration, enabled []int, want int32) []int {
	for _, m := range sp.Policy().SubsetMasks(len(enabled)) {
		sub := scheduler.Subset(m, enabled)
		next := protocol.Step(det, cfg, sub, nil)
		if got, ok := sp.StateOf(next); ok && got == want {
			return sub
		}
	}
	return nil
}
