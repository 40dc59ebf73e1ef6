package statespace

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
// iterative Tarjan, then buckets the components' members with one
// counting sort. Both the checker's fairness analyses (illegitimate
// subgraph) and the Markov hitting-time solver (transient subgraph)
// condense through this one implementation.
func SCC(states int, off []int64, succ []int32, include []bool) Condensation {
	const none = int32(-1)
	comp := make([]int32, states)
	index := make([]int32, states)
	low := make([]int32, states)
	onStack := make([]bool, states)
	for i := range comp {
		comp[i], index[i] = none, none
	}
	var (
		counter int32
		nextCmp int32
		tstack  []int32
	)
	type frame struct {
		v    int32
		next int
	}
	var stack []frame
	for root := 0; root < states; root++ {
		if (include != nil && !include[root]) || index[root] != none {
			continue
		}
		stack = append(stack[:0], frame{v: int32(root)})
		index[root], low[root] = counter, counter
		counter++
		tstack = append(tstack, int32(root))
		onStack[root] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succs := succ[off[f.v]:off[f.v+1]]
			recursed := false
			for f.next < len(succs) {
				w := succs[f.next]
				f.next++
				if include != nil && !include[w] {
					continue
				}
				if index[w] == none {
					index[w], low[w] = counter, counter
					counter++
					tstack = append(tstack, w)
					onStack[w] = true
					stack = append(stack, frame{v: w})
					recursed = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if recursed {
				continue
			}
			if f.next >= len(succs) {
				v := f.v
				if low[v] == index[v] {
					for {
						w := tstack[len(tstack)-1]
						tstack = tstack[:len(tstack)-1]
						onStack[w] = false
						comp[w] = nextCmp
						if w == v {
							break
						}
					}
					nextCmp++
				}
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := stack[len(stack)-1].v
					if low[v] < low[p] {
						low[p] = low[v]
					}
				}
			}
		}
	}
	// Bucket by one counting sort. The spent index and low arrays hold
	// the write cursors and the members, so bucketing allocates only
	// start.
	start := make([]int32, nextCmp+1)
	for _, c := range comp {
		if c >= 0 {
			start[c+1]++
		}
	}
	for c := range nextCmp {
		start[c+1] += start[c]
	}
	next := index[:nextCmp]
	copy(next, start)
	members := low[:counter:counter]
	for s, c := range comp {
		if c >= 0 {
			members[next[c]] = int32(s)
			next[c]++
		}
	}
	return Condensation{Comp: comp, Start: start, Members: members}
}
