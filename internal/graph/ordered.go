package graph

import (
	"fmt"
	"math"
)

// FromOrderedAdjacency builds a graph whose local neighbor indexing is
// given explicitly: adj[p][i] is the global id of p's i-th neighbor. This
// matters for impossibility arguments: an anonymous process's behavior may
// depend on its local indexing, and adversarial labelings (e.g. mirror
// symmetric ones) are exactly what symmetry-based proofs such as Theorem 3
// exploit. The adjacency must be symmetric (q appears in adj[p] iff p
// appears in adj[q]), simple, and connected.
//
// The rows keep the caller's order, so LocalIndex and Adjacent scan a row
// linearly instead of binary-searching it, and the symmetry check costs
// the sum of squared degrees. That suits the one constructor built on it,
// MirrorChain, whose degrees are at most 2.
func FromOrderedAdjacency(adj [][]int) (*Graph, error) {
	n := len(adj)
	if n < 1 {
		return nil, fmt.Errorf("graph: need at least 1 node")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes exceed the int32 layout", n)
	}
	off := make([]int32, n+1)
	for p, nbrs := range adj {
		if int(off[p])+len(nbrs) > math.MaxInt32 {
			return nil, fmt.Errorf("graph: more than %d directed edges", math.MaxInt32)
		}
		off[p+1] = off[p] + int32(len(nbrs))
	}
	nbr := make([]int32, off[n])
	// last[q] = p+1 while row p is copied: a repeat of q is a duplicate.
	last := make([]int32, n)
	for p, nbrs := range adj {
		for i, q := range nbrs {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("graph: neighbor %d of %d out of range [0,%d)", q, p, n)
			}
			if q == p {
				return nil, fmt.Errorf("graph: self-loop at node %d", p)
			}
			if last[q] == int32(p+1) {
				return nil, fmt.Errorf("graph: duplicate neighbor %d at node %d", q, p)
			}
			last[q] = int32(p + 1)
			nbr[int(off[p])+i] = int32(q)
		}
	}
	g := &Graph{off: off, nbr: nbr, ordered: true, name: fmt.Sprintf("ordered(n=%d)", n)}
	for p := range n {
		for _, q := range g.row(p) {
			if !g.Adjacent(int(q), p) {
				return nil, fmt.Errorf("graph: edge %d->%d has no reverse", p, q)
			}
		}
	}
	if !g.isConnected() {
		return nil, fmt.Errorf("graph: not connected")
	}
	return g, nil
}

// MirrorChain returns the path graph 0-1-...-(n-1) with a local neighbor
// labeling that is equivariant under the mirror p -> n-1-p: left-half
// internal nodes list their smaller neighbor first, right-half nodes their
// larger one, so Neighbor(mirror(p), i) = mirror(Neighbor(p, i)) for all
// p, i. On such a chain every deterministic anonymous algorithm's
// synchronous executions preserve mirror symmetry — the labeling Theorem 3
// needs. Full equivariance requires even n: for odd n the mirror fixes the
// middle node but swaps its two neighbors, so no labeling of the middle
// can be equivariant.
func MirrorChain(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: mirror chain needs n >= 2, got %d", n)
	}
	adj := make([][]int, n)
	for p := 0; p < n; p++ {
		switch {
		case p == 0:
			adj[p] = []int{1}
		case p == n-1:
			adj[p] = []int{n - 2}
		case 2*p < n-1: // strictly left half
			adj[p] = []int{p - 1, p + 1}
		case 2*p > n-1: // strictly right half
			adj[p] = []int{p + 1, p - 1}
		default: // exact middle of an odd chain: any order breaks the tie
			adj[p] = []int{p - 1, p + 1}
		}
	}
	g, err := FromOrderedAdjacency(adj)
	if err != nil {
		return nil, err
	}
	g.name = fmt.Sprintf("mirror-chain(%d)", n)
	return g, nil
}

// IsEquivariantUnder reports whether perm is a label-preserving
// automorphism: Neighbor(perm[p], i) = perm[Neighbor(p, i)] for every p
// and local index i. Equivariant labelings make deterministic synchronous
// executions commute with perm.
func (g *Graph) IsEquivariantUnder(perm []int) bool {
	if !g.IsAutomorphism(perm) {
		return false
	}
	for p := range g.N() {
		for i, q := range g.row(p) {
			if g.Neighbor(perm[p], i) != perm[q] {
				return false
			}
		}
	}
	return true
}
