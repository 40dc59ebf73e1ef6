package statespace

// SCC against an independent oracle (mutual reachability by brute force)
// and against Tarjan's algorithm in its textbook three-array form, whose
// component numbering SCC must reproduce exactly.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// tarjanReference condenses like SCC by the iterative Tarjan with
// separate index, low-link and on-stack arrays and an include test per
// edge: components numbered in completion order, members ascending.
func tarjanReference(states int, off []int64, succ []int32, include []bool) Condensation {
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
				if p := stack[len(stack)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	start := make([]int32, nextCmp+1)
	for _, c := range comp {
		if c >= 0 {
			start[c+1]++
		}
	}
	for c := range nextCmp {
		start[c+1] += start[c]
	}
	members := make([]int32, counter)
	at := slices.Clone(start)
	for s, c := range comp {
		if c >= 0 {
			members[at[c]] = int32(s)
			at[c]++
		}
	}
	return Condensation{Comp: comp, Start: start, Members: members}
}

// sameCondensation reports where got's numbering departs from want's.
func sameCondensation(got, want Condensation) error {
	for _, f := range []struct {
		name      string
		got, want []int32
	}{{"Comp", got.Comp, want.Comp}, {"Start", got.Start, want.Start}, {"Members", got.Members, want.Members}} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Errorf("%s %v, Tarjan's reference numbers %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// sccOracle returns reach[s][t]: t is reachable from s (s itself
// included) along edges between included states, s and t both included.
func sccOracle(states int, off []int64, succ []int32, include []bool) [][]bool {
	in := func(s int32) bool { return include == nil || include[s] }
	reach := make([][]bool, states)
	for s := range reach {
		reach[s] = make([]bool, states)
		if !in(int32(s)) {
			continue
		}
		reach[s][s] = true
		queue := []int32{int32(s)}
		for head := 0; head < len(queue); head++ {
			for _, t := range succ[off[queue[head]]:off[queue[head]+1]] {
				if in(t) && !reach[s][t] {
					reach[s][t] = true
					queue = append(queue, t)
				}
			}
		}
	}
	return reach
}

// checkCondensation checks SCC's result on one CSR against the oracle:
// the partition into mutually reachable classes of the included states,
// Start as the prefix sums of the component sizes, Members as a
// permutation of the included states ascending within each component,
// and every edge between two components pointing into the lower id; then
// it checks the numbering against tarjanReference.
func checkCondensation(states int, off []int64, succ []int32, include []bool) error {
	cond := SCC(states, off, succ, include)
	if err := sameCondensation(cond, tarjanReference(states, off, succ, include)); err != nil {
		return err
	}
	reach := sccOracle(states, off, succ, include)
	comp, count := cond.Comp, cond.Count()
	if len(comp) != states || count < 0 || len(cond.Start) != count+1 || cond.Start[0] != 0 {
		return fmt.Errorf("%d ids, %d starts for %d components", len(comp), len(cond.Start), count)
	}
	size := make([]int32, count)
	for s, c := range comp {
		if (c >= 0) != (include == nil || include[s]) || c >= int32(count) {
			return fmt.Errorf("state %d (included %v) has id %d of %d", s, include == nil || include[s], c, count)
		}
		if c >= 0 {
			size[c]++
		}
		for t := range s {
			if comp[t] >= 0 && c >= 0 && (comp[t] == c) != (reach[s][t] && reach[t][s]) {
				return fmt.Errorf("states %d and %d: ids %d and %d, mutually reachable %v", t, s, comp[t], c, reach[s][t] && reach[t][s])
			}
		}
	}
	for c := range count {
		if size[c] == 0 || cond.Start[c+1]-cond.Start[c] != size[c] {
			return fmt.Errorf("component %d: Start spans %d members, %d states carry its id", c, cond.Start[c+1]-cond.Start[c], size[c])
		}
	}
	if int(cond.Start[count]) != len(cond.Members) {
		return fmt.Errorf("Start ends at %d, %d members", cond.Start[count], len(cond.Members))
	}
	seen := make([]bool, states)
	for c := range count {
		members := cond.Component(c)
		if !slices.IsSorted(members) {
			return fmt.Errorf("component %d members %v not ascending", c, members)
		}
		for _, s := range members {
			if s < 0 || int(s) >= states || seen[s] || comp[s] != int32(c) {
				return fmt.Errorf("component %d lists state %d (id %d, listed before %v)", c, s, comp[s], seen[s])
			}
			seen[s] = true
		}
	}
	for s, c := range comp {
		if c < 0 {
			continue
		}
		for _, t := range succ[off[s]:off[s+1]] {
			if comp[t] >= 0 && comp[t] > c {
				return fmt.Errorf("edge %d->%d goes from component %d up to %d", s, t, c, comp[t])
			}
		}
	}
	return nil
}

// randomSCCInput draws a CSR of n states with rows of 0 to maxDeg successors
// (self-loops and duplicates allowed) and an include mask that is nil,
// dense or sparse.
func randomSCCInput(rng *rand.Rand, n, maxDeg int) ([]int64, []int32, []bool) {
	off := make([]int64, n+1)
	var succ []int32
	for s := range n {
		for range rng.Intn(maxDeg + 1) {
			succ = append(succ, int32(rng.Intn(n)))
		}
		off[s+1] = int64(len(succ))
	}
	var include []bool
	if density := rng.Intn(4); density > 0 {
		include = make([]bool, n)
		for s := range include {
			include[s] = rng.Intn(4) < density
		}
	}
	return off, succ, include
}

// TestSCCMatchesOracle runs SCC on seeded random CSRs of up to 40 states
// and checks each result against the brute-force oracle and Tarjan's
// numbering.
func TestSCCMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for i := range 3000 {
		n, maxDeg := rng.Intn(41), 1+rng.Intn(4)
		off, succ, include := randomSCCInput(rng, n, maxDeg)
		if err := checkCondensation(n, off, succ, include); err != nil {
			t.Fatalf("case %d (n=%d, off=%v, succ=%v, include=%v): %v", i, n, off, succ, include, err)
		}
	}
}

// FuzzSCC decodes the input into a CSR of at most 40 states and an
// include mask and checks SCC against the brute-force oracle. Byte 0
// gives the state count and, in its top bit, whether a mask follows the
// rows; each row is a length byte (mod 5) and that many successor bytes
// (mod the state count); missing bytes read as 0. The result must match
// the oracle and Tarjan's numbering.
func FuzzSCC(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0})
	f.Add([]byte{3, 1, 1, 1, 2, 1, 0})
	f.Add([]byte{0x84, 2, 1, 2, 1, 0, 0, 1, 3, 0b1011})
	f.Add([]byte{5, 2, 1, 4, 1, 2, 1, 0, 1, 4, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		head := next()
		n, masked := (head&0x7f)%41, head&0x80 != 0
		off := make([]int64, n+1)
		var succ []int32
		for s := range n {
			for range next() % 5 {
				succ = append(succ, int32(next()%n))
			}
			off[s+1] = int64(len(succ))
		}
		var include []bool
		if masked {
			include = make([]bool, n)
			bits := 0
			for s := range include {
				if s%8 == 0 {
					bits = next()
				}
				include[s] = bits>>(s%8)&1 == 1
			}
		}
		if err := checkCondensation(n, off, succ, include); err != nil {
			t.Fatalf("n=%d, off=%v, succ=%v, include=%v: %v", n, off, succ, include, err)
		}
	})
}

// TestIllegitSCCMatchesTarjan checks the IllegitSCC memo of built spaces
// whose illegitimate subgraphs have several components with cycles
// against Tarjan's numbering over the same CSR and legitimacy mask.
func TestIllegitSCCMatchesTarjan(t *testing.T) {
	tr, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(graph.Figure2Tree())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a   protocol.Algorithm
		pol scheduler.Policy
	}{
		{tr, scheduler.CentralPolicy},
		{tr, scheduler.DistributedPolicy},
		{lt, scheduler.DistributedPolicy},
	} {
		sp, err := Build(c.a, c.pol, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		name := c.a.Name() + "/" + c.pol.Name()
		include := make([]bool, sp.States)
		for s, l := range sp.Legit {
			include[s] = !l
		}
		cond := sp.IllegitSCC()
		if err := sameCondensation(cond, tarjanReference(sp.States, sp.off, sp.succ, include)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cyclic := 0
		for id := range cond.Count() {
			if len(cond.Component(id)) > 1 {
				cyclic++
			}
		}
		if cyclic < 2 {
			t.Fatalf("%s: %d components with more than one state; the case needs several", name, cyclic)
		}
	}
}
