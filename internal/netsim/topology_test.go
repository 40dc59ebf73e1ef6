package netsim

import (
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/graph"
	"weakstab/internal/sim"
)

// TestTopologyOfLargeStar lays out a star whose hub has 99,999 in-edges.
// Every sender-side slot is found by the graph's LocalIndex, so a linear
// scan there would make this quadratic. The in-edge slots and senders are
// the graph's own CSR arrays, not copies.
func TestTopologyOfLargeStar(t *testing.T) {
	const n = 100_000
	g, err := graph.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	off, nbr := g.CSR()
	if &top.off[0] != &off[0] || &top.sender[0] != &nbr[0] {
		t.Fatal("topology copied the graph's CSR instead of sharing it")
	}
	if top.NumEdges() != 2*(n-1) {
		t.Fatalf("NumEdges = %d, want %d", top.NumEdges(), 2*(n-1))
	}
	for p := 0; p < n; p++ {
		if top.domain[p] != int32(g.Degree(p)+1) {
			t.Fatalf("domain[%d] = %d, want %d", p, top.domain[p], g.Degree(p)+1)
		}
		for e := top.off[p]; e < top.off[p+1]; e++ {
			q := top.sender[e]
			if top.recv[e] != int32(p) {
				t.Fatalf("recv[%d] = %d, want %d", e, top.recv[e], p)
			}
			// q's out-edge at its local index of p is this in-edge.
			j, _ := g.LocalIndex(int(q), p)
			if top.out[top.off[q]+int32(j)] != e {
				t.Fatalf("out of edge %d->%d is %d, want %d", q, p, top.out[top.off[q]+int32(j)], e)
			}
		}
	}
}

// TestEdgeKeysAllocateOnce checks that the per-edge keys grow in one
// allocation, not by repeated appends, that storage with room is reused,
// and that every key is the stream's first-coordinate hash of its edge.
func TestEdgeKeysAllocateOnce(t *testing.T) {
	g, err := graph.Ring(10_000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(7, "loss")
	if allocs := testing.AllocsPerRun(5, func() { s.edgeKeys(nil, top) }); allocs != 1 {
		t.Fatalf("edgeKeys(nil) made %.0f allocations, want 1", allocs)
	}
	keys := s.edgeKeys(nil, top)
	if allocs := testing.AllocsPerRun(5, func() { keys = s.edgeKeys(keys, top) }); allocs != 0 {
		t.Fatalf("edgeKeys with room made %.0f allocations, want 0", allocs)
	}
	if len(keys) != top.NumEdges() {
		t.Fatalf("len(keys) = %d, want %d", len(keys), top.NumEdges())
	}
	for e, k := range keys {
		if want := sim.Mix64(s.key ^ edgeTerm(int32(e))); k != want {
			t.Fatalf("keys[%d] = %#x, want %#x", e, k, want)
		}
	}
}
