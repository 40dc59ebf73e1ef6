package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oracle is the map-based layout the CSR replaced: one neighbor list per
// node plus one map from neighbor to local index.
type oracle struct {
	adj [][]int
	idx []map[int]int
}

func newOracle(adj [][]int) oracle {
	o := oracle{adj: adj, idx: make([]map[int]int, len(adj))}
	for p, nbrs := range adj {
		o.idx[p] = make(map[int]int, len(nbrs))
		for i, q := range nbrs {
			o.idx[p][q] = i
		}
	}
	return o
}

// oracleFromEdges orders every node's neighbors by ascending id, as
// FromEdges documents.
func oracleFromEdges(n int, edges [][2]int) oracle {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, nbrs := range adj {
		slices.Sort(nbrs)
	}
	return newOracle(adj)
}

// checkLayout compares Degree, Neighbor, LocalIndex and Adjacent of g with
// the oracle for every node p and every q in [-1, N], and checks that
// Neighbor(p, Degree(p)) panics instead of reading the next node's row.
func checkLayout(t *testing.T, g *Graph, o oracle) {
	t.Helper()
	if g.N() != len(o.adj) {
		t.Fatalf("%s: N = %d, want %d", g.Name(), g.N(), len(o.adj))
	}
	for p, nbrs := range o.adj {
		if g.Degree(p) != len(nbrs) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", g.Name(), p, g.Degree(p), len(nbrs))
		}
		for i, q := range nbrs {
			if got := g.Neighbor(p, i); got != q {
				t.Fatalf("%s: Neighbor(%d,%d) = %d, want %d", g.Name(), p, i, got, q)
			}
		}
		for q := -1; q <= g.N(); q++ {
			wi, wok := o.idx[p][q]
			if i, ok := g.LocalIndex(p, q); i != wi || ok != wok {
				t.Fatalf("%s: LocalIndex(%d,%d) = (%d,%v), want (%d,%v)", g.Name(), p, q, i, ok, wi, wok)
			}
			if g.Adjacent(p, q) != wok {
				t.Fatalf("%s: Adjacent(%d,%d) = %v, want %v", g.Name(), p, q, !wok, wok)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Neighbor(%d,%d) past the row did not panic", g.Name(), p, len(nbrs))
				}
			}()
			g.Neighbor(p, len(nbrs))
		}()
	}
}

// pruferEdges decodes seq the textbook way: repeatedly join the smallest
// current leaf to the next entry.
func pruferEdges(seq []int) [][2]int {
	n := len(seq) + 2
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range seq {
		deg[v]++
	}
	var edges [][2]int
	for _, v := range seq {
		leaf := slices.Index(deg, 1)
		edges = append(edges, [2]int{leaf, v})
		deg[leaf]--
		deg[v]--
	}
	a := slices.Index(deg, 1)
	b := a + 1 + slices.Index(deg[a+1:], 1)
	return append(edges, [2]int{a, b})
}

func TestLayoutMatchesMapOracle(t *testing.T) {
	for _, n := range []int{3, 4, 7, 500} {
		g, err := Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		edges := make([][2]int, n)
		for i := range edges {
			edges[i] = [2]int{i, (i + 1) % n}
		}
		checkLayout(t, g, oracleFromEdges(n, edges))
	}
	for _, n := range []int{2, 3, 8, 300} {
		edges := make([][2]int, n-1)
		for i := range edges {
			edges[i] = [2]int{i, i + 1}
		}
		g, err := Chain(n)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, g, oracleFromEdges(n, edges))
		for i := range edges {
			edges[i] = [2]int{0, i + 1}
		}
		if g, err = Star(n); err != nil {
			t.Fatal(err)
		}
		checkLayout(t, g, oracleFromEdges(n, edges))
	}
	for _, n := range []int{2, 5, 24} {
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
		g, err := Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, g, oracleFromEdges(n, edges))
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 50; trial++ {
		seq := make([]int, rng.Intn(40)+1)
		for i := range seq {
			seq[i] = rng.Intn(len(seq) + 2)
		}
		g, err := FromPrufer(seq)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, g, oracleFromEdges(len(seq)+2, pruferEdges(seq)))
	}
}

func TestOrderedLayoutMatchesMapOracle(t *testing.T) {
	for _, n := range []int{2, 3, 6, 9} {
		g, err := MirrorChain(n)
		if err != nil {
			t.Fatal(err)
		}
		adj := make([][]int, n)
		for p := range adj {
			if p > 0 {
				adj[p] = append(adj[p], p-1)
			}
			if p < n-1 {
				adj[p] = append(adj[p], p+1)
			}
			if 2*p > n-1 { // the right half lists its larger neighbor first
				slices.Reverse(adj[p])
			}
		}
		checkLayout(t, g, newOracle(adj))
	}

	// A hub of degree 149 joined to a ring of leaves, every row shuffled.
	const n = 150
	adj := make([][]int, n)
	for q := 1; q < n; q++ {
		next := q%(n-1) + 1
		adj[0] = append(adj[0], q)
		adj[q] = append(adj[q], 0, next)
		adj[next] = append(adj[next], q)
	}
	rng := rand.New(rand.NewSource(46))
	for _, nbrs := range adj {
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
	}
	g, err := FromOrderedAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) < 100 {
		t.Fatalf("hub degree %d, want >= 100", g.Degree(0))
	}
	checkLayout(t, g, newOracle(adj))
}

// TestRingAllocatesLittle pins the constructor at a handful of
// allocations, independent of n: the CSR arrays, the graph, its names and
// one BFS's distance vector and queue.
func TestRingAllocatesLittle(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Ring(10_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("Ring(10000) made %.0f allocations, want <= 16", allocs)
	}
}

func TestFromEdgesRejectsOverflow(t *testing.T) {
	// The check precedes every allocation, so a huge n costs nothing.
	if _, err := FromEdges(1<<31, nil); err == nil {
		t.Fatal("accepted 2^31 nodes")
	}
}

func ExampleGraph_CSR() {
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	off, nbr := g.CSR()
	fmt.Println(off, nbr)
	// Output: [0 3 5 7 8] [1 2 3 0 2 0 1 0]
}
