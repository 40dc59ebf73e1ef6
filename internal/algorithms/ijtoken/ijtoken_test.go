package ijtoken

import (
	"math"
	"math/rand"
	"testing"

	"weakstab/internal/graph"
)

func mustSystem(t *testing.T, g *graph.Graph, err error) *System {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	one, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(one); err == nil {
		t.Fatal("single-node system accepted")
	}
}

func TestStepMergesOnContact(t *testing.T) {
	g, err := graph.Chain(2)
	s := mustSystem(t, g, err)
	rng := rand.New(rand.NewSource(1))
	// Two tokens on a 2-chain: any move lands on the other token.
	next := s.Step([]int{0, 1}, rng)
	if len(next) != 1 {
		t.Fatalf("tokens after forced meeting = %v, want single", next)
	}
}

func TestExpectedMergeTimeChain2(t *testing.T) {
	g, err := graph.Chain(2)
	s := mustSystem(t, g, err)
	e, err := s.ExpectedMergeTime([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-9 {
		t.Fatalf("E = %g, want exactly 1", e)
	}
}

func TestExpectedMergeTimeTriangle(t *testing.T) {
	// Ring(3), two tokens: the chosen token merges w.p. 1/2 or hops to the
	// free node (still two adjacent tokens): E = 2.
	g, err := graph.Ring(3)
	s := mustSystem(t, g, err)
	e, err := s.ExpectedMergeTime([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2) > 1e-9 {
		t.Fatalf("E = %g, want exactly 2", e)
	}
}

func TestExpectedMergeTimeCompleteAllNodes(t *testing.T) {
	// Complete(3) fully occupied: whichever token moves lands on an
	// occupied node through either neighbour, so both moves reach the same
	// two-token mask and merge into one transition of probability 1/3.
	// One step to two tokens, then E = 2 as on the triangle: E = 3.
	g, err := graph.Complete(3)
	s := mustSystem(t, g, err)
	e, err := s.ExpectedMergeTime(s.AllNodes())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-3) > 1e-12 {
		t.Fatalf("E = %.17g, want 3", e)
	}
}

func TestExpectedMergeTimeRing4(t *testing.T) {
	// Ring(4): h(adjacent) = 3, h(antipodal) = 4 (hand-solved).
	g, err := graph.Ring(4)
	s := mustSystem(t, g, err)
	adj, err := s.ExpectedMergeTime([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adj-3) > 1e-9 {
		t.Fatalf("h(adjacent) = %g, want 3", adj)
	}
	far, err := s.ExpectedMergeTime([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(far-4) > 1e-9 {
		t.Fatalf("h(antipodal) = %g, want 4", far)
	}
}

func TestSingleTokenIsAbsorbed(t *testing.T) {
	g, err := graph.Ring(5)
	s := mustSystem(t, g, err)
	e, err := s.ExpectedMergeTime([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("E from single token = %g, want 0", e)
	}
	steps, ok := s.Simulate([]int{3}, rand.New(rand.NewSource(2)), 10)
	if !ok || steps != 0 {
		t.Fatalf("Simulate single = (%d,%v), want (0,true)", steps, ok)
	}
}

func TestSimulateMatchesExactExpectation(t *testing.T) {
	// Monte-Carlo mean within 10% of the exact value on Ring(6) from all
	// nodes occupied.
	g, err := graph.Ring(6)
	s := mustSystem(t, g, err)
	exact, err := s.ExpectedMergeTime(s.AllNodes())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const trials = 3000
	total := 0.0
	for i := 0; i < trials; i++ {
		steps, ok := s.Simulate(s.AllNodes(), rng, 100000)
		if !ok {
			t.Fatal("simulation did not merge")
		}
		total += float64(steps)
	}
	mean := total / trials
	if math.Abs(mean-exact)/exact > 0.10 {
		t.Fatalf("Monte-Carlo mean %g vs exact %g", mean, exact)
	}
}

func TestExpectedMergeTimeValidation(t *testing.T) {
	g, err := graph.Ring(4)
	s := mustSystem(t, g, err)
	if _, err := s.ExpectedMergeTime(nil); err == nil {
		t.Fatal("empty token set accepted")
	}
	if _, err := s.ExpectedMergeTime([]int{9}); err == nil {
		t.Fatal("out-of-range token accepted")
	}
	big, err := graph.Ring(25)
	if err != nil {
		t.Fatal(err)
	}
	sBig, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sBig.ExpectedMergeTime([]int{0, 1}); err == nil {
		t.Fatal("exact analysis beyond the mask limit accepted")
	}
}

func TestMoreTokensTakeLonger(t *testing.T) {
	// Starting with more tokens cannot be faster in expectation.
	g, err := graph.Ring(6)
	s := mustSystem(t, g, err)
	two, err := s.ExpectedMergeTime([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.ExpectedMergeTime(s.AllNodes())
	if err != nil {
		t.Fatal(err)
	}
	if all <= two {
		t.Fatalf("E(all)=%g should exceed E(two antipodal)=%g", all, two)
	}
}

func TestCompleteGraphFasterThanRing(t *testing.T) {
	// With every pair adjacent, tokens meet faster than on a ring of the
	// same size — a shape check for the E12 comparison.
	ringG, err := graph.Ring(8)
	ring := mustSystem(t, ringG, err)
	compG, err := graph.Complete(8)
	comp := mustSystem(t, compG, err)
	eRing, err := ring.ExpectedMergeTime([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	eComp, err := comp.ExpectedMergeTime([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if eComp >= eRing {
		t.Fatalf("complete graph %g not faster than ring %g", eComp, eRing)
	}
}
