package graph

import (
	"slices"
	"testing"
)

// FuzzFromPrufer checks that every syntactically valid Prüfer sequence
// decodes to a tree and that invalid entries are rejected, never panicking.
func FuzzFromPrufer(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{3, 3, 3})
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		n := len(raw) + 2
		seq := make([]int, len(raw))
		valid := true
		for i, b := range raw {
			seq[i] = int(int8(b)) // may be negative or out of range
			if seq[i] < 0 || seq[i] >= n {
				valid = false
			}
		}
		g, err := FromPrufer(seq)
		if valid {
			if err != nil {
				t.Fatalf("valid sequence %v rejected: %v", seq, err)
			}
			if !g.IsTree() || g.N() != n {
				t.Fatalf("decode of %v is not a tree on %d nodes", seq, n)
			}
		} else if err == nil {
			t.Fatalf("invalid sequence %v accepted", seq)
		}
	})
}

// oldRulesAccept is FromEdges's validation as the map-based layout did it:
// endpoints in range, no self-loop, no duplicate (in either direction)
// and a connected result.
func oldRulesAccept(n int, edges [][2]int) bool {
	if n < 1 {
		return false
	}
	seen := map[[2]int]bool{}
	adj := make([][]int, n)
	for _, e := range edges {
		p, q := e[0], e[1]
		if p < 0 || p >= n || q < 0 || q >= n || p == q {
			return false
		}
		key := [2]int{min(p, q), max(p, q)}
		if seen[key] {
			return false
		}
		seen[key] = true
		adj[p] = append(adj[p], q)
		adj[q] = append(adj[q], p)
	}
	return connected(adj)
}

// connected reports whether every node of adj is reachable from node 0.
func connected(adj [][]int) bool {
	reached := map[int]bool{0: true}
	stack := []int{0}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range adj[p] {
			if !reached[q] {
				reached[q] = true
				stack = append(stack, q)
			}
		}
	}
	return len(reached) == len(adj)
}

// FuzzFromEdges checks that the constructor never panics, accepts an edge
// list exactly when the map-based rules do, and lays an accepted graph out
// as the map-based oracle would, every row ascending.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2})
	f.Add(uint8(2), []byte{0, 0})
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2}) // n=4: a 4-cycle and a chord
	f.Add(uint8(2), []byte{0, 1, 1, 2, 2, 1})             // n=3: a reversed duplicate
	f.Fuzz(func(t *testing.T, rawN uint8, rawEdges []byte) {
		n := int(rawN%10) + 1
		if len(rawEdges) > 24 {
			rawEdges = rawEdges[:24]
		}
		var edges [][2]int
		for i := 0; i+1 < len(rawEdges); i += 2 {
			edges = append(edges, [2]int{int(rawEdges[i]) % (n + 2), int(rawEdges[i+1]) % (n + 2)})
		}
		want := oldRulesAccept(n, edges)
		g, err := FromEdges(n, edges)
		if (err == nil) != want {
			t.Fatalf("FromEdges(%d, %v) error = %v, map-based rules accept = %v", n, edges, err, want)
		}
		if err != nil {
			return
		}
		off, nbr := g.CSR()
		for p := 0; p < n; p++ {
			if row := nbr[off[p]:off[p+1]]; !slices.IsSorted(row) {
				t.Fatalf("row %d = %v does not ascend", p, row)
			}
		}
		checkLayout(t, g, oracleFromEdges(n, edges))
	})
}

// FuzzFromOrderedAdjacency checks that the constructor never panics,
// accepts an adjacency exactly when it is in range, simple, symmetric and
// connected, and keeps the caller's row order.
func FuzzFromOrderedAdjacency(f *testing.F) {
	f.Add(uint8(3), []byte{2, 3, 255, 1, 3, 255, 2, 1})
	f.Add(uint8(2), []byte{2, 255, 1})
	f.Add(uint8(2), []byte{2, 2, 255, 1})
	f.Add(uint8(3), []byte{2, 255, 1, 3})
	f.Fuzz(func(t *testing.T, rawN uint8, raw []byte) {
		n := int(rawN%8) + 1
		if len(raw) > 32 {
			raw = raw[:32]
		}
		// Byte 255 ends a row; any other byte b is neighbor b%(n+2)-1, so
		// -1 and n are out of range.
		adj := make([][]int, n)
		p := 0
		for _, b := range raw {
			if b == 255 {
				p = min(p+1, n-1)
			} else {
				adj[p] = append(adj[p], int(b)%(n+2)-1)
			}
		}
		want := orderedRulesAccept(adj)
		g, err := FromOrderedAdjacency(adj)
		if (err == nil) != want {
			t.Fatalf("FromOrderedAdjacency(%v) error = %v, rules accept = %v", adj, err, want)
		}
		if err == nil {
			checkLayout(t, g, newOracle(adj))
		}
	})
}

// orderedRulesAccept is FromOrderedAdjacency's documented validation.
func orderedRulesAccept(adj [][]int) bool {
	n := len(adj)
	has := map[[2]int]bool{}
	for p, nbrs := range adj {
		for _, q := range nbrs {
			if q < 0 || q >= n || q == p || has[[2]int{p, q}] {
				return false
			}
			has[[2]int{p, q}] = true
		}
	}
	for e := range has {
		if !has[[2]int{e[1], e[0]}] {
			return false
		}
	}
	return n > 0 && connected(adj)
}
