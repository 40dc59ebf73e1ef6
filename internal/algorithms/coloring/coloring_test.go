package coloring

import (
	"math/rand"
	"testing"

	"weakstab/internal/checker"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

func mustNew(t *testing.T, g *graph.Graph, err error) *Algorithm {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	one, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(one); err == nil {
		t.Fatal("single node accepted")
	}
}

func TestModelValidates(t *testing.T) {
	g, err := graph.Ring(4)
	a := mustNew(t, g, err)
	if err := protocol.Validate(a, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRecolorPicksSmallestFree(t *testing.T) {
	g, err := graph.Star(4) // hub 0 with leaves 1,2,3; hub palette 0..3
	a := mustNew(t, g, err)
	cfg := protocol.Configuration{0, 0, 1, 2}
	if got := a.EnabledAction(cfg, 0); got != ActionRecolor {
		t.Fatal("conflicted hub not enabled")
	}
	if got := a.DeterministicExecute(cfg, 0, ActionRecolor); got != 3 {
		t.Fatalf("recolor = %d, want 3 (0,1,2 used)", got)
	}
	// Leaf 1 conflicts with the hub and recolors to 1 (palette {0,1}).
	if got := a.DeterministicExecute(cfg, 1, ActionRecolor); got != 1 {
		t.Fatalf("leaf recolor = %d, want 1", got)
	}
}

func TestLegitimateIffTerminalExhaustive(t *testing.T) {
	for _, build := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Ring(4) },
		func() (*graph.Graph, error) { return graph.Ring(5) },
		func() (*graph.Graph, error) { return graph.Chain(4) },
		func() (*graph.Graph, error) { return graph.Star(4) },
	} {
		g, err := build()
		a := mustNew(t, g, err)
		enc, err := protocol.NewEncoder(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := make(protocol.Configuration, g.N())
		for idx := int64(0); idx < enc.Total(); idx++ {
			cfg = enc.Decode(idx, cfg)
			if a.Legitimate(cfg) != protocol.IsTerminal(a, cfg) {
				t.Fatalf("%s: legitimate != terminal at %v", g.Name(), cfg)
			}
		}
	}
}

// conflictEdges counts the edges of g whose endpoints share a color.
func conflictEdges(g *graph.Graph, cfg protocol.Configuration) int {
	count := 0
	for _, e := range g.Edges() {
		if cfg[e[0]] == cfg[e[1]] {
			count++
		}
	}
	return count
}

func TestCentralMoveStrictlyDecreasesConflicts(t *testing.T) {
	// The potential argument behind central self-stabilization: firing a
	// single process strictly decreases the number of conflicting edges.
	g, err := graph.Ring(6)
	a := mustNew(t, g, err)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		cfg := protocol.RandomConfiguration(a, rng)
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) == 0 {
			continue
		}
		p := enabled[rng.Intn(len(enabled))]
		before := conflictEdges(g, cfg)
		next := protocol.Step(a, cfg, []int{p}, nil)
		after := conflictEdges(g, next)
		if after >= before {
			t.Fatalf("conflicts %d -> %d after firing %d in %v", before, after, p, cfg)
		}
	}
}

func TestSpectrumAcrossSchedulers(t *testing.T) {
	// The [14] conflict-manager story on the 4-ring:
	// central: self-stabilizing; distributed: weak only; synchronous: not
	// even weak (uniform coloring livelocks).
	g, err := graph.Ring(4)
	a := mustNew(t, g, err)

	if weak, self := classes(t, a, scheduler.CentralPolicy); !weak || !self {
		t.Fatal("coloring must be self-stabilizing under the central scheduler")
	}
	if weak, self := classes(t, a, scheduler.DistributedPolicy); !weak || self {
		t.Fatalf("coloring under distributed: weak=%v self=%v, want weak only", weak, self)
	}
	if weak, _ := classes(t, a, scheduler.SynchronousPolicy); weak {
		t.Fatal("coloring must not be weak-stabilizing synchronously (uniform ring livelock)")
	}
}

// classes explores a under pol and reports weak stabilization
// (Definition 3) and self stabilization (Definition 1).
func classes(t *testing.T, a protocol.Algorithm, pol scheduler.Policy) (weak, self bool) {
	t.Helper()
	ss, err := statespace.Build(a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := checker.FromSpace(ss)
	closure := sp.CheckClosure().Holds
	return closure && sp.CheckPossibleConvergence().Holds, closure && sp.CheckCertainConvergence().Holds
}

func TestSynchronousLivelockOnUniformRing(t *testing.T) {
	g, err := graph.Ring(4)
	a := mustNew(t, g, err)
	cfg := protocol.Configuration{0, 0, 0, 0}
	for step := 0; step < 10; step++ {
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) != 4 {
			t.Fatalf("step %d: enabled = %v", step, enabled)
		}
		cfg = protocol.Step(a, cfg, enabled, nil)
		if a.Legitimate(cfg) {
			t.Fatalf("step %d: uniform ring converged synchronously", step)
		}
	}
	// All processes chase each other: configuration stays uniform.
	if cfg[0] != cfg[1] || cfg[1] != cfg[2] || cfg[2] != cfg[3] {
		t.Fatalf("livelock lost uniformity: %v", cfg)
	}
}

func TestTransformedConvergesSynchronously(t *testing.T) {
	// The conflict-manager result of [14]: coin tosses break the symmetry.
	g, err := graph.Ring(4)
	a := mustNew(t, g, err)
	trans := transformer.New(a)
	ts, err := statespace.Build(trans, scheduler.SynchronousPolicy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromSpace(ts)
	if err != nil {
		t.Fatal(err)
	}
	enc := ts.Enc
	target := markov.TargetFromSpace(ts)
	for s, ok := range chain.ReachesWithProbOne(target) {
		if !ok {
			t.Fatalf("transformed coloring fails prob-1 from %v", enc.Decode(int64(s), nil))
		}
	}
}

func TestProperColoringUsesAtMostDegPlusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		g, err := graph.RandomTree(2+rng.Intn(8), rng)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		cfg := protocol.RandomConfiguration(a, rng)
		for steps := 0; steps < 10000 && !a.Legitimate(cfg); steps++ {
			enabled := protocol.EnabledProcesses(a, cfg)
			cfg = protocol.Step(a, cfg, []int{enabled[rng.Intn(len(enabled))]}, nil)
		}
		if !a.Legitimate(cfg) {
			t.Fatal("central randomized run did not converge")
		}
		for p := 0; p < g.N(); p++ {
			if cfg[p] > g.Degree(p) {
				t.Fatalf("color %d exceeds palette at %d", cfg[p], p)
			}
		}
	}
}

func TestName(t *testing.T) {
	g, err := graph.Ring(3)
	a := mustNew(t, g, err)
	if a.Name() != "coloring(ring(3))" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.ActionName(ActionRecolor) == "" {
		t.Fatal("empty action name")
	}
}

// smallestFree is the definitional recolor: the smallest color of p's
// palette that no neighbor holds.
func smallestFree(g *graph.Graph, cfg protocol.Configuration, p int) int {
	for c := 0; ; c++ {
		used := false
		for i := 0; i < g.Degree(p); i++ {
			used = used || cfg[g.Neighbor(p, i)] == c
		}
		if !used {
			return c
		}
	}
}

// TestDeterministicExecuteMatchesBruteForce checks the bitmap recolor
// against smallestFree on random configurations, and on a complete graph
// whose neighbors hold every color but one, so the free color sits in any
// block of the palette, the later ones included.
func TestDeterministicExecuteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ring, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	star, err := graph.Star(130)
	if err != nil {
		t.Fatal(err)
	}
	k, err := graph.Complete(1200)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{ring, star, k} {
		a := mustNew(t, g, nil)
		for trial := 0; trial < 20; trial++ {
			cfg := protocol.RandomConfiguration(a, rng)
			for p := 0; p < g.N(); p += 1 + g.N()/50 {
				if got, want := a.DeterministicExecute(cfg, p, ActionRecolor), smallestFree(g, cfg, p); got != want {
					t.Fatalf("%s: p=%d recolor %d, want %d", g.Name(), p, got, want)
				}
			}
		}
	}
	a := mustNew(t, k, nil)
	cfg := make(protocol.Configuration, k.N())
	for trial := 0; trial < 20; trial++ {
		// Process 0's 1199 neighbors hold [0, 1200) minus hole.
		hole := rng.Intn(k.N())
		if trial < 3 {
			hole = []int{0, 511, 1199}[trial]
		}
		colors := make([]int, 0, k.N()-1)
		for c := 0; c < k.N(); c++ {
			if c != hole {
				colors = append(colors, c)
			}
		}
		rng.Shuffle(len(colors), func(i, j int) { colors[i], colors[j] = colors[j], colors[i] })
		copy(cfg[1:], colors)
		if got := a.DeterministicExecute(cfg, 0, ActionRecolor); got != hole {
			t.Fatalf("complete(1200): recolor %d, want the only free color %d", got, hole)
		}
	}
}

// TestDeterministicExecuteAllocationFree pins the protocol.Deterministic
// promise on a ring process and on a star centre of degree 199.
func TestDeterministicExecuteAllocationFree(t *testing.T) {
	ring, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	star, err := graph.Star(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{ring, star} {
		a := mustNew(t, g, nil)
		cfg := make(protocol.Configuration, g.N())
		if n := testing.AllocsPerRun(100, func() { a.DeterministicExecute(cfg, 0, ActionRecolor) }); n != 0 {
			t.Fatalf("%s: DeterministicExecute allocates %v times per call", g.Name(), n)
		}
	}
}
