package spec

import (
	"math/rand"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/trace"
)

func tokenTrace(t *testing.T, n, steps int, fromLegit bool) (*tokenring.Algorithm, *trace.Trace) {
	t.Helper()
	a, err := tokenring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	var init protocol.Configuration
	if fromLegit {
		init = a.LegitimateWithTokenAt(0)
	} else {
		init = protocol.RandomConfiguration(a, rand.New(rand.NewSource(3)))
	}
	sched := scheduler.Func{Label: "first-token", F: func(_ int, cfg protocol.Configuration, enabled []int, _ *rand.Rand) []int {
		return enabled[:1]
	}}
	return a, trace.Record(a, sched, init, nil, steps)
}

func TestTokenCirculationHoldsOnLegitimateRun(t *testing.T) {
	a, tr := tokenTrace(t, 5, 20, true)
	s := TokenCirculation{Holders: a.TokenHolders, MaxStarvation: 5}
	if err := s.Check(tr); err != nil {
		t.Fatal(err)
	}
}

func TestTokenCirculationRejectsMultiToken(t *testing.T) {
	a, tr := tokenTrace(t, 6, 3, false)
	s := TokenCirculation{Holders: a.TokenHolders}
	if err := s.Check(tr); err == nil {
		t.Fatal("multi-token execution accepted")
	}
}

func TestTokenCirculationDetectsStarvation(t *testing.T) {
	// A scheduler that never moves the token (impossible for Algorithm 1,
	// so fabricate a frozen trace): repeat the same configuration.
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.LegitimateWithTokenAt(2)
	tr := &trace.Trace{Algorithm: a, Initial: cfg}
	for i := 0; i < 10; i++ {
		tr.Steps = append(tr.Steps, trace.Step{Before: cfg, After: cfg})
	}
	s := TokenCirculation{Holders: a.TokenHolders, MaxStarvation: 5}
	if err := s.Check(tr); err == nil {
		t.Fatal("starving execution accepted")
	}
}

func TestMutualExclusion(t *testing.T) {
	a, err := dijkstra.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	init := protocol.Configuration{0, 0, 0, 0, 0}
	tr := trace.Record(a, scheduler.NewLexMin(), init, nil, 25)
	privileged := func(cfg protocol.Configuration) []int {
		var out []int
		for p := range cfg {
			if a.Privileged(cfg, p) {
				out = append(out, p)
			}
		}
		return out
	}
	s := MutualExclusion{Holders: privileged}
	if err := s.Check(tr); err != nil {
		t.Fatal(err)
	}
	// From an arbitrary configuration multiple privileges exist.
	bad := trace.Record(a, scheduler.NewLexMin(), protocol.Configuration{0, 2, 1, 4, 3}, nil, 1)
	if err := s.Check(bad); err == nil {
		t.Fatal("multi-privilege configuration accepted")
	}
}

func TestStableLeader(t *testing.T) {
	g := graph.Figure2Tree()
	a, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Terminal legitimate configuration: leader P5 forever.
	cfg := make(protocol.Configuration, 8)
	parents := []int{1, 2, 4, 4, -1, 4, 4, 5}
	for p, q := range parents {
		if q == -1 {
			cfg[p] = a.Bottom(p)
			continue
		}
		i, ok := g.LocalIndex(p, q)
		if !ok {
			t.Fatalf("bad parent")
		}
		cfg[p] = i
	}
	tr := trace.Record(a, scheduler.NewSynchronous(), cfg, nil, 5)
	s := StableLeader{Leaders: a.Leaders}
	if err := s.Check(tr); err != nil {
		t.Fatal(err)
	}
	// The Figure 2 execution changes leaders (P8 then P2 then P5): the
	// stability spec must reject it.
	moving := trace.RecordScript(a, mustFigure2Init(t, a), [][]int{{5, 7}, {1, 7}, {2, 4}, {1, 4}}, nil)
	if err := s.Check(moving); err == nil {
		t.Fatal("leader-changing execution accepted")
	}
}

func mustFigure2Init(t *testing.T, a *leadertree.Algorithm) protocol.Configuration {
	t.Helper()
	g := a.Graph()
	parents := []int{1, 0, 1, 4, 6, 7, 4, 5}
	init := make(protocol.Configuration, 8)
	for p, q := range parents {
		i, ok := g.LocalIndex(p, q)
		if !ok {
			t.Fatalf("bad parent %d for %d", q, p)
		}
		init[p] = i
	}
	return init
}

func TestConvergenceShape(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// An illegitimate prefix, then legitimate throughout: the stabilizing
	// shape, with the run continuing in L long after it converged.
	tr := trace.Record(a, scheduler.NewCentralRandomized(), protocol.RandomConfiguration(a, rng), rng, 500)
	s := ConvergenceShape{Legitimate: a.Legitimate, RequireConvergence: true}
	if err := s.Check(tr); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceShapeClosureViolation(t *testing.T) {
	a, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	legit := a.LegitimateWithTokenAt(0)
	illegit := protocol.Configuration{0, 0, 0, 0}
	if a.Legitimate(illegit) {
		t.Skip("setup wrong")
	}
	tr := &trace.Trace{Algorithm: a, Initial: legit}
	tr.Steps = append(tr.Steps, trace.Step{Before: legit, After: illegit})
	s := ConvergenceShape{Legitimate: a.Legitimate}
	if err := s.Check(tr); err == nil {
		t.Fatal("closure violation accepted")
	}
}

func TestConvergenceShapeRequiresConvergence(t *testing.T) {
	a, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	illegit := protocol.Configuration{0, 0, 0, 0, 0, 0}
	tr := &trace.Trace{Algorithm: a, Initial: illegit}
	s := ConvergenceShape{Legitimate: a.Legitimate, RequireConvergence: true}
	if err := s.Check(tr); err == nil {
		t.Fatal("non-converged trace accepted")
	}
	relaxed := ConvergenceShape{Legitimate: a.Legitimate}
	if err := relaxed.Check(tr); err != nil {
		t.Fatal("relaxed shape should accept non-converged prefix")
	}
}

func TestAllCombinator(t *testing.T) {
	a, tr := tokenTrace(t, 5, 15, true)
	good := All{
		MutualExclusion{Holders: a.TokenHolders},
		TokenCirculation{Holders: a.TokenHolders, MaxStarvation: 5},
		ConvergenceShape{Legitimate: a.Legitimate, RequireConvergence: true},
	}
	if err := good.Check(tr); err != nil {
		t.Fatal(err)
	}
	bad := All{
		MutualExclusion{Holders: a.TokenHolders},
		TokenCirculation{Holders: a.TokenHolders, MaxStarvation: 1},
	}
	if err := bad.Check(tr); err == nil {
		t.Fatal("impossible starvation bound accepted")
	}
	if good.Name() != "all" {
		t.Fatal("combinator name")
	}
}

func TestSpecNames(t *testing.T) {
	a, _ := tokenTrace(t, 5, 1, true)
	for _, s := range []Spec{
		TokenCirculation{Holders: a.TokenHolders},
		MutualExclusion{Holders: a.TokenHolders},
		StableLeader{},
		ConvergenceShape{},
	} {
		if s.Name() == "" {
			t.Fatal("empty spec name")
		}
	}
}
