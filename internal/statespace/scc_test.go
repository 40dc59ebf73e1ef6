package statespace

// SCC against an independent oracle: mutual reachability by brute force.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

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
// and every edge between two components pointing into the lower id.
func checkCondensation(states int, off []int64, succ []int32, include []bool) error {
	cond := SCC(states, off, succ, include)
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
// and checks each result against the brute-force oracle.
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
// (mod the state count); missing bytes read as 0.
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
