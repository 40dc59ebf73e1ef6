package sim

import (
	"math/rand"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func TestRoundsEqualStepsUnderSynchronous(t *testing.T) {
	// A synchronous step activates every enabled process: one step is
	// exactly one round.
	a, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		init := protocol.RandomConfiguration(a, rng)
		res := Run(a, scheduler.NewSynchronous(), init, rng, Options{MaxSteps: 50})
		if res.Rounds != res.Steps {
			t.Fatalf("synchronous: rounds %d != steps %d", res.Rounds, res.Steps)
		}
	}
}

func TestRoundsAtMostSteps(t *testing.T) {
	a, err := tokenring.New(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		res := Run(a, scheduler.NewCentralRandomized(), protocol.RandomConfiguration(a, rng), rng, Options{MaxSteps: 100000})
		if !res.Converged {
			t.Fatal("no convergence")
		}
		if res.Rounds > res.Steps {
			t.Fatalf("rounds %d > steps %d", res.Rounds, res.Steps)
		}
	}
}

func TestRoundsZeroWhenImmediatelyLegitimate(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(a, scheduler.NewCentralRandomized(), a.LegitimateWithTokenAt(0), rand.New(rand.NewSource(1)), Options{})
	if res.Rounds != 0 || res.Steps != 0 {
		t.Fatalf("immediate convergence: rounds=%d steps=%d", res.Rounds, res.Steps)
	}
}

func TestRoundCompletesWhenAllPendingServed(t *testing.T) {
	// Hand-driven round accounting: two processes enabled; serving them
	// one at a time completes the round at the second step.
	tr := newRoundTracker(4, []int{0, 3})
	tr.observe([]int{0}, []int{0, 3}) // 3 still pending
	if tr.rounds != 0 {
		t.Fatalf("round closed early: %d", tr.rounds)
	}
	tr.observe([]int{3}, []int{0, 3})
	if tr.rounds != 1 {
		t.Fatalf("round not closed: %d", tr.rounds)
	}
}

func TestRoundCompletesWhenPendingDisabled(t *testing.T) {
	// A pending process that becomes disabled leaves the round.
	tr := newRoundTracker(4, []int{0, 3})
	tr.observe([]int{0}, []int{0}) // 3 became disabled
	if tr.rounds != 1 {
		t.Fatalf("round should close when pending process disabled: %d", tr.rounds)
	}
}
