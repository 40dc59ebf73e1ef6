package checker

// Exploration-accounting tests for the k-fault pipeline: the fix for the
// double ball exploration (stabcheck -reachable -kfaults used to enumerate
// the fault ball and frontier-explore its closure once in the CLI and then
// a second time for the verdicts) is pinned by counting every call the
// exploration engines make into the Algorithm. The counts are exact: a
// second enumeration or closure exploration cannot hide.

import (
	"strings"
	"sync/atomic"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// countingAlg wraps an Algorithm and counts the calls exploration makes
// into it. It deliberately does not implement protocol.Deterministic, so
// the engine takes the general Outcomes path.
type countingAlg struct {
	protocol.Algorithm
	legit   atomic.Int64
	enabled atomic.Int64
}

func (c *countingAlg) Legitimate(cfg protocol.Configuration) bool {
	c.legit.Add(1)
	return c.Algorithm.Legitimate(cfg)
}

func (c *countingAlg) EnabledAction(cfg protocol.Configuration, p int) int {
	c.enabled.Add(1)
	return c.Algorithm.EnabledAction(cfg, p)
}

// TestBallPipelineExploresOnce pins the exact exploration cost of the
// ball pipeline (the one stabcheck -reachable -kfaults now runs): the
// fault-ball legitimacy scan touches every configuration of the index
// range exactly once, the frontier closure evaluates legitimacy and the
// n per-process guards exactly once per explored state — and the verdict
// scans (BallVerdictsOver) never call back into the algorithm at all.
func TestBallPipelineExploresOnce(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	a := &countingAlg{Algorithm: inner}
	pol := scheduler.CentralPolicy
	n := int64(inner.Graph().N())
	enc, err := protocol.NewEncoder(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := enc.Total()

	const k = 1
	ss, globals, ballDist, err := BallClosureContext(t.Context(), nil, a, pol, k, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	states := int64(ss.NumStates())

	wantLegit := total + states // one full-range scan + one per explored state
	wantEnabled := n * states   // n guard evaluations per explored state
	if got := a.legit.Load(); got != wantLegit {
		t.Errorf("BallClosure made %d Legitimate calls, want exactly %d (one scan + one per closure state): ball or closure explored more than once", got, wantLegit)
	}
	if got := a.enabled.Load(); got != wantEnabled {
		t.Errorf("BallClosure made %d EnabledAction calls, want exactly %d (n per closure state): closure explored more than once", got, wantEnabled)
	}

	// The verdict scans run over the already-built subspace: zero
	// additional algorithm calls.
	if verdicts := BallVerdictsOver(ss, BallLocalDistances(ss, globals, ballDist), k); len(verdicts) != k+1 {
		t.Fatalf("BallVerdictsOver returned %d verdicts, want %d", len(verdicts), k+1)
	}
	if got := a.legit.Load(); got != wantLegit {
		t.Errorf("BallVerdictsOver made %d extra Legitimate calls, want 0", got-wantLegit)
	}
	if got := a.enabled.Load(); got != wantEnabled {
		t.Errorf("BallVerdictsOver made %d extra EnabledAction calls, want 0", got-wantEnabled)
	}
}

// TestFaultBallCapBoundary pins the inclusive cap semantics of the ball
// enumeration at the exact boundary (maxStates, maxStates±1), matching
// the frontier engine's discovery cap.
func TestFaultBallCapBoundary(t *testing.T) {
	ring, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	globals, _, err := FaultBallContext(t.Context(), ring, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	B := int64(len(globals))
	legits, _, err := FaultBallContext(t.Context(), ring, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	L := int64(len(legits))
	if B <= L {
		t.Fatalf("distance-1 ball (%d) must outgrow L (%d)", B, L)
	}

	// Ball of exactly B states: caps B and B+1 succeed, B-1 fails.
	for _, cap := range []int64{B, B + 1} {
		got, _, err := FaultBallContext(t.Context(), ring, 1, 0, cap)
		if err != nil {
			t.Fatalf("maxStates=%d on a %d-state ball: %v", cap, B, err)
		}
		if int64(len(got)) != B {
			t.Fatalf("maxStates=%d: ball has %d states, want %d", cap, len(got), B)
		}
	}
	if _, _, err := FaultBallContext(t.Context(), ring, 1, 0, B-1); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("maxStates=%d must fail on a %d-state ball, got err=%v", B-1, B, err)
	}

	// Legitimate set of exactly maxStates is admitted (k=0: nothing to
	// grow); one fewer fails at admission.
	if got, _, err := FaultBallContext(t.Context(), ring, 0, 0, L); err != nil || int64(len(got)) != L {
		t.Fatalf("maxStates=%d on |L|=%d: got %d states, err=%v", L, L, len(got), err)
	}
	if _, _, err := FaultBallContext(t.Context(), ring, 0, 0, L-1); err == nil ||
		!strings.Contains(err.Error(), "legitimate set") {
		t.Fatalf("|L|=%d must exceed the %d-state cap at admission, got err=%v", L, L-1, err)
	}
}
