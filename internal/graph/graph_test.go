package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromEdgesValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		edges   [][2]int
		wantErr bool
	}{
		{"single node", 1, nil, false},
		{"zero nodes", 0, nil, true},
		{"negative nodes", -3, nil, true},
		{"simple edge", 2, [][2]int{{0, 1}}, false},
		{"self loop", 2, [][2]int{{0, 0}}, true},
		{"out of range", 2, [][2]int{{0, 2}}, true},
		{"negative endpoint", 2, [][2]int{{-1, 0}}, true},
		{"duplicate edge", 2, [][2]int{{0, 1}, {1, 0}}, true},
		{"disconnected", 4, [][2]int{{0, 1}, {2, 3}}, true},
		{"triangle", 3, [][2]int{{0, 1}, {1, 2}, {2, 0}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := FromEdges(tc.n, tc.edges)
			if gotErr := err != nil; gotErr != tc.wantErr {
				t.Fatalf("FromEdges(%d, %v) error = %v, wantErr %v", tc.n, tc.edges, err, tc.wantErr)
			}
		})
	}
}

func TestMustFromEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromEdges on invalid input did not panic")
		}
	}()
	MustFromEdges(2, [][2]int{{0, 0}})
}

func TestLocalIndexing(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	// Node 0's neighbors sorted: 1,2,3.
	if got := g.Neighbors(0); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [1 2 3]", got)
	}
	if got := g.Neighbor(0, 2); got != 3 {
		t.Fatalf("Neighbor(0,2) = %d, want 3", got)
	}
	i, ok := g.LocalIndex(1, 2)
	if !ok || i != 1 {
		t.Fatalf("LocalIndex(1,2) = (%d,%v), want (1,true): neighbors of 1 are [0 2]", i, ok)
	}
	if _, ok := g.LocalIndex(1, 3); ok {
		t.Fatal("LocalIndex(1,3) reported ok for non-adjacent nodes")
	}
	if !g.Adjacent(1, 2) || g.Adjacent(1, 3) {
		t.Fatal("Adjacent gave wrong answers")
	}
}

func TestNeighborsReturnsCopy(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	nbrs := g.Neighbors(1)
	nbrs[0] = 99
	if got := g.Neighbor(1, 0); got == 99 {
		t.Fatal("Neighbors returned internal slice; mutation leaked into graph")
	}
}

func TestRing(t *testing.T) {
	if _, err := Ring(2); err == nil {
		t.Fatal("Ring(2) should fail")
	}
	for _, n := range []int{3, 4, 6, 9} {
		g, err := Ring(n)
		if err != nil {
			t.Fatalf("Ring(%d): %v", n, err)
		}
		if g.N() != n || g.M() != n {
			t.Fatalf("Ring(%d): got n=%d m=%d", n, g.N(), g.M())
		}
		for p := 0; p < n; p++ {
			if g.Degree(p) != 2 {
				t.Fatalf("Ring(%d): degree(%d)=%d, want 2", n, p, g.Degree(p))
			}
		}
		wantDiam := n / 2
		if g.Diameter() != wantDiam {
			t.Fatalf("Ring(%d): diameter=%d, want %d", n, g.Diameter(), wantDiam)
		}
	}
}

func TestChain(t *testing.T) {
	if _, err := Chain(1); err == nil {
		t.Fatal("Chain(1) should fail")
	}
	g, err := Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTree() {
		t.Fatal("chain is not recognized as tree")
	}
	if g.Diameter() != 4 || g.Radius() != 2 {
		t.Fatalf("Chain(5): diameter=%d radius=%d, want 4,2", g.Diameter(), g.Radius())
	}
	if c := g.Centers(); len(c) != 1 || c[0] != 2 {
		t.Fatalf("Chain(5): centers=%v, want [2]", c)
	}
	if leaves := g.Leaves(); len(leaves) != 2 || leaves[0] != 0 || leaves[1] != 4 {
		t.Fatalf("Chain(5): leaves=%v, want [0 4]", leaves)
	}
}

func TestChainEvenHasTwoAdjacentCenters(t *testing.T) {
	g, err := Chain(6)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Centers()
	if len(c) != 2 || c[0] != 2 || c[1] != 3 {
		t.Fatalf("Chain(6): centers=%v, want [2 3]", c)
	}
	if !g.Adjacent(c[0], c[1]) {
		t.Fatal("the two centers of an even chain must be adjacent (Property 1)")
	}
}

func TestStar(t *testing.T) {
	g, err := Star(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 5 {
		t.Fatalf("star hub degree = %d, want 5", g.Degree(0))
	}
	if c := g.Centers(); len(c) != 1 || c[0] != 0 {
		t.Fatalf("star centers = %v, want [0]", c)
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 10 {
		t.Fatalf("K5 edges = %d, want 10", g.M())
	}
	if g.Diameter() != 1 {
		t.Fatalf("K5 diameter = %d, want 1", g.Diameter())
	}
	if g.IsTree() {
		t.Fatal("K5 is not a tree")
	}
}

func TestBFSAndDistance(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	dist := g.BFS(0)
	want := []int{0, 1, 2, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("BFS(0) = %v, want %v", dist, want)
		}
	}
	if g.Distance(1, 4) != 2 {
		t.Fatalf("Distance(1,4) = %d, want 2", g.Distance(1, 4))
	}
}

func TestPruferRoundTripSmall(t *testing.T) {
	// All 16 labeled trees on 4 nodes via sequences of length 2.
	count := 0
	if err := AllLabeledTrees(4, func(g *Graph) bool {
		count++
		if !g.IsTree() {
			t.Fatalf("enumerated graph %v is not a tree", g)
		}
		if g.N() != 4 {
			t.Fatalf("tree has %d nodes, want 4", g.N())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 16 {
		t.Fatalf("enumerated %d trees on 4 nodes, want 4^2=16", count)
	}
}

func TestAllLabeledTreesCounts(t *testing.T) {
	// Cayley's formula: n^(n-2) labeled trees.
	for n, want := range map[int]int{2: 1, 3: 3, 5: 125, 6: 1296} {
		count := 0
		if err := AllLabeledTrees(n, func(*Graph) bool { count++; return true }); err != nil {
			t.Fatal(err)
		}
		if count != want {
			t.Fatalf("n=%d: enumerated %d trees, want %d", n, count, want)
		}
	}
}

func TestAllLabeledTreesEarlyStop(t *testing.T) {
	count := 0
	if err := AllLabeledTrees(5, func(*Graph) bool { count++; return count < 7 }); err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Fatalf("early stop after %d trees, want 7", count)
	}
}

func TestAllLabeledTreesDistinct(t *testing.T) {
	seen := map[string]bool{}
	if err := AllLabeledTrees(5, func(g *Graph) bool {
		key := fmt.Sprint(g.Edges())
		if seen[key] {
			t.Fatalf("duplicate tree enumerated: %s", key)
		}
		seen[key] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFromPruferInvalid(t *testing.T) {
	if _, err := FromPrufer([]int{5}); err == nil {
		t.Fatal("out-of-range prüfer entry accepted")
	}
	if _, err := FromPrufer([]int{-1}); err == nil {
		t.Fatal("negative prüfer entry accepted")
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(20)
		g, err := RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTree() || g.N() != n {
			t.Fatalf("RandomTree(%d) produced non-tree %v", n, g)
		}
	}
}

func TestTreeCentersProperty1(t *testing.T) {
	// Property 1: a tree has one center or two adjacent centers.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(15)
		g, err := RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		c := g.Centers()
		switch len(c) {
		case 1:
		case 2:
			if !g.Adjacent(c[0], c[1]) {
				t.Fatalf("tree %v has two non-adjacent centers %v", g, c)
			}
		default:
			t.Fatalf("tree %v has %d centers %v, want 1 or 2", g, len(c), c)
		}
	}
}

func TestTreeCenterEccentricityIdentity(t *testing.T) {
	// In any tree, diameter and radius satisfy r = ceil(D/2).
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		g, err := RandomTree(2+rng.Intn(20), rng)
		if err != nil {
			t.Fatal(err)
		}
		d, r := g.Diameter(), g.Radius()
		if want := (d + 1) / 2; r != want {
			t.Fatalf("tree %v: radius=%d, want ceil(%d/2)=%d", g, r, d, want)
		}
	}
}

func TestFigure2Tree(t *testing.T) {
	g := Figure2Tree()
	if g.N() != 8 || !g.IsTree() {
		t.Fatalf("figure 2 tree malformed: n=%d tree=%v", g.N(), g.IsTree())
	}
	// Degrees from the reconstruction: P5 (id 4) has degree 4, P6 (id 5)
	// degree 2.
	if g.Degree(4) != 4 || g.Degree(5) != 2 {
		t.Fatalf("figure 2 tree degrees: deg(P5)=%d deg(P6)=%d, want 4,2", g.Degree(4), g.Degree(5))
	}
	// Leaves: P1,P4,P7,P8 (ids 0,3,6,7).
	leaves := g.Leaves()
	want := []int{0, 3, 6, 7}
	if len(leaves) != len(want) {
		t.Fatalf("figure 2 tree leaves = %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("figure 2 tree leaves = %v, want %v", leaves, want)
		}
	}
}

func TestMirrorAutomorphismOfChain(t *testing.T) {
	g, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	mirror := []int{3, 2, 1, 0}
	if !g.IsAutomorphism(mirror) {
		t.Fatal("mirror of 4-chain must be an automorphism")
	}
	if g.IsAutomorphism([]int{1, 0, 2, 3}) {
		t.Fatal("swapping one end pair of a chain is not an automorphism")
	}
	if g.IsAutomorphism([]int{0, 1, 2}) {
		t.Fatal("wrong-length permutation accepted")
	}
	if g.IsAutomorphism([]int{0, 0, 2, 3}) {
		t.Fatal("non-permutation accepted")
	}
}

func TestRingRotationAutomorphism(t *testing.T) {
	g, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	rot := make([]int, 6)
	for i := range rot {
		rot[i] = (i + 1) % 6
	}
	if !g.IsAutomorphism(rot) {
		t.Fatal("rotation of a ring must be an automorphism")
	}
}

func TestEccentricityPropertiesQuick(t *testing.T) {
	// Property: for any random tree and any adjacent p,q: |ec(p)-ec(q)| <= 1.
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size%18)
		rng := rand.New(rand.NewSource(seed))
		g, err := RandomTree(n, rng)
		if err != nil {
			return false
		}
		ecs := g.Eccentricities()
		for _, e := range g.Edges() {
			d := ecs[e[0]] - ecs[e[1]]
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringAndName(t *testing.T) {
	g, err := Ring(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "ring(3)" {
		t.Fatalf("Name = %q", g.Name())
	}
	want := "ring(3): 0-1 0-2 1-2"
	if g.String() != want {
		t.Fatalf("String = %q, want %q", g.String(), want)
	}
}

func TestEdgesSortedLowHigh(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{3, 0}, {2, 1}, {1, 0}})
	edges := g.Edges()
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not ordered low-high", e)
		}
	}
}
