package graph

import "testing"

func TestFromOrderedAdjacencyValid(t *testing.T) {
	// A triangle with custom neighbor orderings.
	g, err := FromOrderedAdjacency([][]int{
		{2, 1}, // node 0 lists 2 first
		{0, 2},
		{1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Neighbor(0, 0) != 2 || g.Neighbor(0, 1) != 1 {
		t.Fatalf("custom ordering not preserved: %d, %d", g.Neighbor(0, 0), g.Neighbor(0, 1))
	}
	if i, ok := g.LocalIndex(0, 2); !ok || i != 0 {
		t.Fatalf("LocalIndex(0,2) = (%d,%v)", i, ok)
	}
	if g.M() != 3 {
		t.Fatalf("edges = %d", g.M())
	}
}

func TestFromOrderedAdjacencyValidation(t *testing.T) {
	tests := []struct {
		name string
		adj  [][]int
	}{
		{"empty", [][]int{}},
		{"out of range", [][]int{{5}, {0}}},
		{"self loop", [][]int{{0, 1}, {0}}},
		{"duplicate neighbor", [][]int{{1, 1}, {0}}},
		{"asymmetric", [][]int{{1}, {}}},
		{"disconnected", [][]int{{1}, {0}, {3}, {2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromOrderedAdjacency(tc.adj); err == nil {
				t.Fatalf("accepted %v", tc.adj)
			}
		})
	}
}

func TestFromOrderedAdjacencyCopiesInput(t *testing.T) {
	adj := [][]int{{1}, {0}}
	g, err := FromOrderedAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	adj[0][0] = 99
	if g.Neighbor(0, 0) != 1 {
		t.Fatal("constructor retained caller's slice")
	}
}

func TestMirrorChainEquivariance(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		g, err := MirrorChain(n)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsTree() || g.N() != n {
			t.Fatalf("mirror chain n=%d malformed", n)
		}
		mirror := make([]int, n)
		for i := range mirror {
			mirror[i] = n - 1 - i
		}
		if !g.IsEquivariantUnder(mirror) {
			t.Fatalf("mirror chain n=%d not equivariant", n)
		}
	}
}

func TestMirrorChainOddCenterBreaksEquivariance(t *testing.T) {
	// For odd n the mirror fixes the middle node but swaps its neighbors:
	// no labeling of the middle can be equivariant.
	g, err := MirrorChain(5)
	if err != nil {
		t.Fatal(err)
	}
	mirror := []int{4, 3, 2, 1, 0}
	if g.IsEquivariantUnder(mirror) {
		t.Fatal("odd mirror chain cannot be fully equivariant")
	}
	if !g.IsAutomorphism(mirror) {
		t.Fatal("the mirror is still a plain automorphism")
	}
}

func TestMirrorChainValidation(t *testing.T) {
	if _, err := MirrorChain(1); err == nil {
		t.Fatal("MirrorChain(1) accepted")
	}
}

func TestDefaultChainIsNotEquivariant(t *testing.T) {
	// The ascending-id labeling of the standard chain is not
	// mirror-equivariant (the reason experiment E6 needs MirrorChain).
	g, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsEquivariantUnder([]int{3, 2, 1, 0}) {
		t.Fatal("default 4-chain labeling should not be mirror-equivariant")
	}
}

func TestIsEquivariantUnderRejectsNonAutomorphism(t *testing.T) {
	g, err := MirrorChain(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsEquivariantUnder([]int{1, 0, 2, 3}) {
		t.Fatal("non-automorphism accepted")
	}
	if g.IsEquivariantUnder([]int{0, 1}) {
		t.Fatal("wrong-length permutation accepted")
	}
}

func TestRingRotationIsEquivariantWithNaturalLabels(t *testing.T) {
	// On the standard ring the rotation is NOT label-equivariant with
	// ascending-id neighbor order (wrap-around nodes list neighbors in a
	// different relative order), but building it with ordered adjacency in
	// rotational order is.
	n := 5
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		adj[i] = []int{(i + n - 1) % n, (i + 1) % n} // pred first, succ second
	}
	g, err := FromOrderedAdjacency(adj)
	if err != nil {
		t.Fatal(err)
	}
	rot := make([]int, n)
	for i := range rot {
		rot[i] = (i + 1) % n
	}
	if !g.IsEquivariantUnder(rot) {
		t.Fatal("rotation should be equivariant under rotational labeling")
	}
}
