package coloring

import (
	"math/rand"
	"runtime"
	"testing"

	"weakstab/internal/graph"
	"weakstab/internal/protocol"
)

// TestEnumerateLegitimateMatchesScan pins the backtracking enumeration
// bit-equal to the definitional legitimacy scan: it yields exactly the
// proper colorings, each once — across rings, chains, stars and random
// trees.
func TestEnumerateLegitimateMatchesScan(t *testing.T) {
	build := func(f func(int) (*graph.Graph, error), n int) *graph.Graph {
		g, err := f(n)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rng := rand.New(rand.NewSource(11))
	rt, err := graph.RandomTree(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		build(graph.Ring, 4), build(graph.Ring, 5), build(graph.Ring, 6),
		build(graph.Chain, 2), build(graph.Chain, 6),
		build(graph.Star, 5),
		rt,
	}
	for _, g := range graphs {
		a, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := protocol.NewEncoder(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]bool{}
		cfg := make(protocol.Configuration, g.N())
		for i := int64(0); i < enc.Total(); i++ {
			cfg = enc.Decode(i, cfg)
			if a.Legitimate(cfg) {
				want[i] = true
			}
		}
		got := map[int64]bool{}
		a.EnumerateLegitimate(func(c protocol.Configuration) bool {
			if !a.Legitimate(c) {
				t.Fatalf("%s: enumerated improper coloring %v", g.Name(), c)
			}
			i := enc.Encode(c)
			if got[i] {
				t.Fatalf("%s: coloring %v enumerated twice", g.Name(), c)
			}
			got[i] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: enumerated %d colorings, scan found %d", g.Name(), len(got), len(want))
		}
		for i := range want {
			if !got[i] {
				t.Fatalf("%s: proper coloring %v missing from enumeration", g.Name(), enc.Decode(i, nil))
			}
		}
	}
}

// TestEnumerateLegitimateFirstYield pins the greedy property netsim relies
// on for legitimate starts at scale: the first yielded configuration is the
// lexicographically smallest proper coloring, reached without backtracking
// past any prefix that already extends to one.
func TestEnumerateLegitimateFirstYield(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	var first protocol.Configuration
	a.EnumerateLegitimate(func(c protocol.Configuration) bool {
		first = c.Clone()
		return false
	})
	if first == nil {
		t.Fatal("no coloring yielded")
	}
	if !a.Legitimate(first) {
		t.Fatalf("first yield %v is not proper", first)
	}
	// On a ring the greedy order is 0,1,0,1,…,2: alternation closed by one 2.
	want := protocol.Configuration{0, 1, 0, 1, 0, 1, 0, 1, 2}
	if !first.Equal(want) {
		t.Fatalf("first yield %v, want lexicographically smallest %v", first, want)
	}
}

// TestEnumerateLegitimateEarlyStop pins the iterator contract: a false
// yield stops the enumeration immediately.
func TestEnumerateLegitimateEarlyStop(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	a.EnumerateLegitimate(func(protocol.Configuration) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("enumeration continued %d yields past a false return", calls)
	}
}

// TestEnumerateLegitimateFirstYieldConstantCost pins the iterative
// backtracking: the first yield on a 10^5-process ring allocates as often
// as on a 10-process ring, and a fresh goroutine reaches it without
// growing its stack by a frame per process. The stack is measured from
// inside yield, where a recursive enumeration is at its deepest.
func TestEnumerateLegitimateFirstYieldConstantCost(t *testing.T) {
	type cost struct {
		allocs float64
		stack  uint64
	}
	measure := func(n int) cost {
		g, err := graph.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		var c cost
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.EnumerateLegitimate(func(protocol.Configuration) bool {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				c.stack = ms.StackInuse
				return false
			})
		}()
		<-done
		c.allocs = testing.AllocsPerRun(5, func() {
			a.EnumerateLegitimate(func(protocol.Configuration) bool { return false })
		})
		return c
	}
	small, large := measure(10), measure(100_000)
	if large.allocs != small.allocs {
		t.Errorf("first yield allocates %v times on ring(10^5), %v on ring(10)", large.allocs, small.allocs)
	}
	if large.stack > small.stack+256<<10 {
		t.Errorf("stack in use at the first yield: %d bytes on ring(10^5), %d on ring(10)", large.stack, small.stack)
	}
}
