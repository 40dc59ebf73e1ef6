package graph

import (
	"fmt"
	"math/rand"
)

// Ring returns the cycle graph on n >= 3 nodes 0-1-2-...-(n-1)-0.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n >= 3, got %d", n)
	}
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	g.name = fmt.Sprintf("ring(%d)", n)
	return g, nil
}

// Chain returns the path graph 0-1-...-(n-1) on n >= 2 nodes.
func Chain(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: chain needs n >= 2, got %d", n)
	}
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	g.name = fmt.Sprintf("chain(%d)", n)
	return g, nil
}

// Star returns the star graph on n >= 2 nodes: node 0 is the hub, nodes
// 1..n-1 are leaves.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: star needs n >= 2, got %d", n)
	}
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	g.name = fmt.Sprintf("star(%d)", n)
	return g, nil
}

// Complete returns the complete graph on n >= 2 nodes.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: complete graph needs n >= 2, got %d", n)
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	g.name = fmt.Sprintf("complete(%d)", n)
	return g, nil
}

// FromPrufer decodes a Prüfer sequence of length n-2 (entries in [0,n)) into
// the corresponding labeled tree on n >= 2 nodes. Every labeled tree
// corresponds to exactly one sequence, so iterating all sequences iterates
// all n^(n-2) labeled trees.
func FromPrufer(seq []int) (*Graph, error) {
	n := len(seq) + 2
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graph: prüfer entry %d out of range [0,%d)", v, n)
		}
		degree[v]++
	}
	edges := make([][2]int, 0, n-1)
	// ptr scans for the smallest leaf; leaf tracks the current working leaf.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		edges = append(edges, [2]int{leaf, v})
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	// The last two remaining leaves are leaf and n-1.
	edges = append(edges, [2]int{leaf, n - 1})
	g, err := FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("graph: decoding prüfer sequence: %w", err)
	}
	g.name = fmt.Sprintf("tree(%d)", n)
	return g, nil
}

// RandomTree returns a uniformly random labeled tree on n >= 2 nodes drawn
// via a random Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: random tree needs n >= 2, got %d", n)
	}
	if n == 2 {
		return Chain(2)
	}
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	return FromPrufer(seq)
}

// AllLabeledTrees calls fn with every labeled tree on n nodes (there are
// n^(n-2) of them for n >= 3, one for n = 2), in Prüfer-sequence order. If
// fn returns false the enumeration stops early. It returns an error only
// for n < 2.
//
// The *Graph passed to fn is freshly allocated per call and may be retained.
func AllLabeledTrees(n int, fn func(*Graph) bool) error {
	if n < 2 {
		return fmt.Errorf("graph: tree enumeration needs n >= 2, got %d", n)
	}
	if n == 2 {
		g, err := Chain(2)
		if err != nil {
			return err
		}
		fn(g)
		return nil
	}
	seq := make([]int, n-2)
	for {
		g, err := FromPrufer(seq)
		if err != nil {
			return err
		}
		if !fn(g) {
			return nil
		}
		// Increment seq as a base-n counter.
		i := len(seq) - 1
		for i >= 0 {
			seq[i]++
			if seq[i] < n {
				break
			}
			seq[i] = 0
			i--
		}
		if i < 0 {
			return nil
		}
	}
}

// Figure2Tree returns the 8-process tree of Figure 2 of the paper,
// reconstructed so that the initial configuration and every enabled-action
// annotation of the figure's five panels are reproduced exactly: a chain
// P1-P2-P3-P5 with P4, P7 leaves of P5 and P8 a leaf of P6, itself attached
// to P5. Process ids follow the paper's labels minus one (P1..P8 -> 0..7):
//
//	P1-P2, P2-P3, P3-P5, P4-P5, P5-P6, P5-P7, P6-P8
func Figure2Tree() *Graph {
	g := MustFromEdges(8, [][2]int{
		{0, 1}, // P1-P2
		{1, 2}, // P2-P3
		{2, 4}, // P3-P5
		{3, 4}, // P4-P5
		{4, 5}, // P5-P6
		{4, 6}, // P5-P7
		{5, 7}, // P6-P8
	})
	g.name = "figure2-tree(8)"
	return g
}
