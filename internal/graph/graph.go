// Package graph implements the anonymous-network communication graphs used
// throughout the library: undirected, connected graphs whose processes can
// address their neighbors only through local indexes 0..deg(p)-1, exactly as
// in the model section of Devismes, Tixeuil and Yamashita (2008).
//
// A process p therefore never sees a global identifier: an algorithm
// receives "neighbor i of p" and may store i in its local state. The Graph
// type keeps, for every node, an ordered neighbor list; the position of a
// neighbor in that list is its local index.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is an undirected connected graph over nodes 0..N-1 with stable local
// neighbor indexing. The zero value is not usable; construct graphs with
// FromEdges or one of the topology constructors (Ring, Chain, Star, ...).
//
// Graphs are immutable after construction and safe for concurrent use.
type Graph struct {
	adj  [][]int       // adj[p][i] = global id of p's i-th neighbor
	idx  []map[int]int // idx[p][q] = local index of q at p
	name string
}

// FromEdges builds a graph with n nodes from an undirected edge list. Each
// node's neighbors are ordered by ascending global id, which fixes the local
// indexing deterministically. It returns an error if n < 1, an edge is out
// of range, a self-loop or duplicate edge is present, or the graph is not
// connected (the model requires connectivity).
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: need at least 1 node, got %d", n)
	}
	adj := make([][]int, n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		p, q := e[0], e[1]
		if p < 0 || p >= n || q < 0 || q >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", p, q, n)
		}
		if p == q {
			return nil, fmt.Errorf("graph: self-loop at node %d", p)
		}
		key := [2]int{min(p, q), max(p, q)}
		if seen[key] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", p, q)
		}
		seen[key] = true
		adj[p] = append(adj[p], q)
		adj[q] = append(adj[q], p)
	}
	for p := range adj {
		sort.Ints(adj[p])
	}
	g := &Graph{adj: adj, name: fmt.Sprintf("graph(n=%d,m=%d)", n, len(edges))}
	g.buildIndex()
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

func (g *Graph) buildIndex() {
	g.idx = make([]map[int]int, len(g.adj))
	for p, nbrs := range g.adj {
		g.idx[p] = make(map[int]int, len(nbrs))
		for i, q := range nbrs {
			g.idx[p][q] = i
		}
	}
}

func (g *Graph) isConnected() bool {
	if len(g.adj) == 0 {
		return false
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Degree returns the degree of node p.
func (g *Graph) Degree(p int) int { return len(g.adj[p]) }

// Neighbor returns the global id of the i-th neighbor of p. It panics if i
// is out of range, mirroring slice indexing.
func (g *Graph) Neighbor(p, i int) int { return g.adj[p][i] }

// Neighbors returns a copy of p's neighbor list in local-index order.
func (g *Graph) Neighbors(p int) []int {
	out := make([]int, len(g.adj[p]))
	copy(out, g.adj[p])
	return out
}

// LocalIndex returns the local index of q in p's neighbor list, or ok=false
// if q is not a neighbor of p.
func (g *Graph) LocalIndex(p, q int) (i int, ok bool) {
	i, ok = g.idx[p][q]
	return i, ok
}

// Adjacent reports whether p and q are neighbors.
func (g *Graph) Adjacent(p, q int) bool {
	_, ok := g.idx[p][q]
	return ok
}

// Edges returns all undirected edges with endpoints ordered (low, high),
// sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for p, nbrs := range g.adj {
		for _, q := range nbrs {
			if p < q {
				out = append(out, [2]int{p, q})
			}
		}
	}
	return out
}

// BFS returns the distance in edges from src to every node; unreachable
// nodes get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, q := range g.adj[p] {
			if dist[q] < 0 {
				dist[q] = dist[p] + 1
				queue = append(queue, q)
			}
		}
	}
	return dist
}

// Distance returns d(p,q), the length of the shortest path between p and q.
func (g *Graph) Distance(p, q int) int { return g.BFS(p)[q] }

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

// Diameter returns the maximum eccentricity.
func (g *Graph) Diameter() int {
	d := 0
	for _, ec := range g.Eccentricities() {
		if ec > d {
			d = ec
		}
	}
	return d
}

// Radius returns the minimum eccentricity.
func (g *Graph) Radius() int {
	ecs := g.Eccentricities()
	r := ecs[0]
	for _, ec := range ecs {
		if ec < r {
			r = ec
		}
	}
	return r
}

// Centers returns the nodes of minimum eccentricity in ascending order. For
// trees, Property 1 of the paper guarantees one center or two adjacent
// centers.
func (g *Graph) Centers() []int {
	ecs := g.Eccentricities()
	r := ecs[0]
	for _, ec := range ecs {
		if ec < r {
			r = ec
		}
	}
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

// Leaves returns all degree-1 nodes in ascending order.
func (g *Graph) Leaves() []int {
	var out []int
	for p := range g.adj {
		if len(g.adj[p]) == 1 {
			out = append(out, p)
		}
	}
	return out
}

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
	for p := range g.adj {
		if len(g.adj[p]) != len(g.adj[perm[p]]) {
			return false
		}
		for _, q := range g.adj[p] {
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
