package statespace

import "math"

// Condensation is the strongly connected component decomposition of an
// induced subgraph. Comp[s] is the component id of state s (-1 for
// excluded states). Components are numbered in reverse topological order
// of the condensation: every cross edge points from a higher id into a
// lower one, so ascending id order is a valid dependency-first solve
// order. The members of component c are Members[Start[c]:Start[c+1]], in
// ascending state order. The slices may be shared; callers must not
// modify them.
type Condensation struct {
	Comp    []int32
	Start   []int32
	Members []int32
}

// Count returns the number of components.
func (c Condensation) Count() int { return len(c.Start) - 1 }

// Component returns the members of component id, ascending.
func (c Condensation) Component(id int) []int32 { return c.Members[c.Start[id]:c.Start[id+1]] }

// SCC condenses the subgraph of the forward CSR (off, succ) induced by
// the states with include[s] true (pass nil to include every state) by an
// iterative Tarjan in Pearce's one-array form, then buckets the
// components' members with one counting sort. Both the checker's fairness
// analyses (illegitimate subgraph) and the Markov hitting-time solve
// (transient subgraph) condense through this one implementation.
//
// One rank per state replaces Tarjan's index, low-link and on-stack
// arrays: 0 while unvisited, the low-link while the state's component is
// open, and a done sentinel above every index once the component is
// finished or when the state is excluded, so an edge into a finished or
// excluded state never lowers a low-link and needs no test of its own. A
// finished state that is not its component's root waits on one stack
// until the root, finishing, pops the states whose rank is at least its
// own. Components are numbered in completion order, which the DFS order
// (roots ascending, successors in CSR order) fixes. Besides the result
// (Comp, Start, and Members, which reuses the rank array) the search
// needs at most 16 bytes a DFS frame and 4 a waiting state.
func SCC(states int, off []int64, succ []int32, include []bool) Condensation {
	const done = math.MaxInt32
	comp := make([]int32, states)
	rank := make([]int32, states)
	for s, in := range include {
		if !in {
			comp[s], rank[s] = -1, done
		}
	}
	type frame struct {
		cur  int64 // the CSR position of the next edge to scan
		v    int32
		root bool // no edge has lowered v's rank yet
	}
	var (
		frames []frame
		wait   []int32
		next   int32 = 1 // the next visit index
		count  int32
	)
	for r := range states {
		if rank[r] != 0 {
			continue
		}
		rank[r] = next
		next++
		frames = append(frames[:0], frame{cur: off[r], v: int32(r), root: true})
	dfs:
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v, rv, root := f.v, rank[f.v], f.root
			// A descent leaves the cursor on the child's edge, so the
			// child's rank is read again once it returns.
			for cur, end := f.cur, off[v+1]; cur < end; cur++ {
				w := succ[cur]
				rw := rank[w]
				if rw == 0 {
					f.cur, f.root, rank[v] = cur, root, rv
					rank[w] = next
					next++
					frames = append(frames, frame{cur: off[w], v: w, root: true})
					continue dfs
				}
				if rw < rv {
					rv, root = rw, false
				}
			}
			frames = frames[:len(frames)-1]
			if !root {
				rank[v] = rv
				wait = append(wait, v)
				continue
			}
			for len(wait) > 0 && rank[wait[len(wait)-1]] >= rv {
				w := wait[len(wait)-1]
				wait = wait[:len(wait)-1]
				comp[w], rank[w] = count, done
			}
			comp[v], rank[v] = count, done
			count++
		}
	}
	// Bucket by one counting sort into the spent rank array: Start[c]
	// first counts component c and then, prefix-summed, ends it; filling
	// the states in descending order moves it back to c's first member
	// and leaves every bucket ascending.
	start := make([]int32, count+1)
	for _, c := range comp {
		if c >= 0 {
			start[c]++
		}
	}
	for c := int32(1); c < count; c++ {
		start[c] += start[c-1]
	}
	included := next - 1
	members := rank[:included:included]
	for s := states - 1; s >= 0; s-- {
		if c := comp[s]; c >= 0 {
			start[c]--
			members[start[c]] = int32(s)
		}
	}
	start[count] = included
	return Condensation{Comp: comp, Start: start, Members: members}
}
