// Package graph implements the anonymous-network communication graphs used
// throughout the library: undirected, connected graphs whose processes can
// address their neighbors only through local indexes 0..deg(p)-1, exactly as
// in the model section of Devismes, Tixeuil and Yamashita (2008).
//
// A process p therefore never sees a global identifier: an algorithm
// receives "neighbor i of p" and may store i in its local state. A Graph
// keeps every node's ordered neighbor list in one compressed sparse row
// (CSR) layout: two int32 arrays, one allocation each, where the position
// of a neighbor in its node's row is its local index. Rows of graphs built
// from edge lists ascend, so LocalIndex is a binary search.
package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Graph is an undirected connected graph over nodes 0..N-1 with stable local
// neighbor indexing. The zero value is not usable; construct graphs with
// FromEdges or one of the topology constructors (Ring, Chain, Star, ...).
//
// The adjacency is one CSR: p's neighbors are nbr[off[p]:off[p+1]] in
// local-index order, so a graph of n nodes and m edges holds n+1+2m int32s
// in two allocations.
//
// Graphs are immutable after construction and safe for concurrent use.
type Graph struct {
	off     []int32 // len N+1; p's row is nbr[off[p]:off[p+1]]
	nbr     []int32 // nbr[off[p]+i] = global id of p's i-th neighbor
	ordered bool    // rows keep FromOrderedAdjacency's order: LocalIndex scans
	name    string
}

// FromEdges builds a graph with n nodes from an undirected edge list. Each
// node's neighbors are ordered by ascending global id, which fixes the local
// indexing deterministically. It returns an error if n < 1, an edge is out
// of range, a self-loop or duplicate edge is present, the graph has more
// than MaxInt32 directed edges, or it is not connected (the model requires
// connectivity).
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: need at least 1 node, got %d", n)
	}
	if n > math.MaxInt32 || len(edges) > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: %d nodes and %d edges exceed the int32 layout", n, len(edges))
	}
	// One counting pass: off[p+1] counts p's degree. The prefix sum makes
	// it the end of p's row and the shift by one its start, which the fill
	// then advances back to the end.
	off := make([]int32, n+1)
	for _, e := range edges {
		p, q := e[0], e[1]
		if p < 0 || p >= n || q < 0 || q >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", p, q, n)
		}
		if p == q {
			return nil, fmt.Errorf("graph: self-loop at node %d", p)
		}
		off[p+1]++
		off[q+1]++
	}
	for p := 1; p <= n; p++ {
		off[p] += off[p-1]
	}
	nbr := make([]int32, off[n])
	copy(off[1:], off[:n])
	for _, e := range edges {
		p, q := int32(e[0]), int32(e[1])
		nbr[off[p+1]] = q
		off[p+1]++
		nbr[off[q+1]] = p
		off[q+1]++
	}
	// Sorting each row turns a duplicate edge into equal adjacent entries.
	for p := 0; p < n; p++ {
		row := nbr[off[p]:off[p+1]]
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", p, row[i])
			}
		}
	}
	g := &Graph{off: off, nbr: nbr, name: fmt.Sprintf("graph(n=%d,m=%d)", n, len(edges))}
	if !g.isConnected() {
		return nil, fmt.Errorf("graph: not connected (n=%d, m=%d)", n, len(edges))
	}
	return g, nil
}

// MustFromEdges is FromEdges but panics on error. It is intended for
// statically known topologies in tests and examples.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) isConnected() bool {
	for _, d := range g.BFS(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// row returns p's neighbors in local-index order.
func (g *Graph) row(p int) []int32 { return g.nbr[g.off[p]:g.off[p+1]] }

// CSR returns the graph's adjacency arrays: p's i-th neighbor is
// nbr[off[p]+i]. The slices are the graph's own storage, shared so that
// callers such as netsim's edge layout need not copy them; they must not
// be modified.
func (g *Graph) CSR() (off, nbr []int32) { return g.off, g.nbr }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.nbr) / 2 }

// Degree returns the degree of node p.
func (g *Graph) Degree(p int) int { return int(g.off[p+1] - g.off[p]) }

// Neighbor returns the global id of the i-th neighbor of p. It panics if i
// is out of range, mirroring slice indexing.
func (g *Graph) Neighbor(p, i int) int { return int(g.row(p)[i]) }

// LocalIndex returns the local index of q in p's neighbor list, or ok=false
// if q is not a neighbor of p. It binary-searches p's ascending row; a
// FromOrderedAdjacency graph scans it.
func (g *Graph) LocalIndex(p, q int) (i int, ok bool) {
	row := g.row(p)
	switch {
	case q < 0 || q >= g.N():
	case g.ordered:
		i = slices.Index(row, int32(q))
		ok = i >= 0
	default:
		i, ok = slices.BinarySearch(row, int32(q))
	}
	if !ok {
		return 0, false
	}
	return i, true
}

// Adjacent reports whether p and q are neighbors.
func (g *Graph) Adjacent(p, q int) bool {
	_, ok := g.LocalIndex(p, q)
	return ok
}

// Edges returns all undirected edges with endpoints ordered (low, high),
// sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for p := range g.N() {
		for _, q := range g.row(p) {
			if p < int(q) {
				out = append(out, [2]int{p, int(q)})
			}
		}
	}
	return out
}

// BFS returns the distance in edges from src to every node; unreachable
// nodes get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	// Every node enters the queue at most once, so a head index over a
	// queue of capacity N never reallocates.
	queue := make([]int32, 1, g.N())
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, q := range g.row(int(p)) {
			if dist[q] < 0 {
				dist[q] = dist[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return dist
}

// Eccentricity returns ec(p) = max over q of d(p,q).
func (g *Graph) Eccentricity(p int) int {
	ec := 0
	for _, d := range g.BFS(p) {
		if d > ec {
			ec = d
		}
	}
	return ec
}

// Eccentricities returns the eccentricity of every node.
func (g *Graph) Eccentricities() []int {
	out := make([]int, g.N())
	for p := range out {
		out[p] = g.Eccentricity(p)
	}
	return out
}

// Centers returns the nodes of minimum eccentricity in ascending order. For
// trees, Property 1 of the paper guarantees one center or two adjacent
// centers.
func (g *Graph) Centers() []int {
	ecs := g.Eccentricities()
	r := slices.Min(ecs)
	var out []int
	for p, ec := range ecs {
		if ec == r {
			out = append(out, p)
		}
	}
	return out
}

// IsTree reports whether the graph is acyclic (it is connected by
// construction), i.e. has exactly N-1 edges.
func (g *Graph) IsTree() bool { return g.M() == g.N()-1 }

// IsAutomorphism reports whether perm (a permutation of 0..N-1) preserves
// adjacency, i.e. {p,q} is an edge iff {perm[p],perm[q]} is.
func (g *Graph) IsAutomorphism(perm []int) bool {
	if len(perm) != g.N() {
		return false
	}
	used := make([]bool, g.N())
	for _, v := range perm {
		if v < 0 || v >= g.N() || used[v] {
			return false
		}
		used[v] = true
	}
	for p := range g.N() {
		if g.Degree(p) != g.Degree(perm[p]) {
			return false
		}
		for _, q := range g.row(p) {
			if !g.Adjacent(perm[p], perm[q]) {
				return false
			}
		}
	}
	return true
}

// Name returns a short human-readable description of the topology.
func (g *Graph) Name() string { return g.name }

// String renders the graph as "name: 0-1 1-2 ...".
func (g *Graph) String() string {
	var b strings.Builder
	b.WriteString(g.name)
	b.WriteString(":")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %d-%d", e[0], e[1])
	}
	return b.String()
}
