package markov

// Cancellation tests for the hitting-time solver: HittingTimesContext
// checks its context before every block, in id order and on the level
// schedule alike, so a pre-canceled context fails before any block is
// solved and a cancel between blocks stops the walk.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// forceLevelSchedule makes every multi-worker solve take the level
// schedule, whatever its block kinds, until the test ends.
func forceLevelSchedule(t *testing.T) {
	save := levelMinGS
	levelMinGS = 0
	t.Cleanup(func() { levelMinGS = save })
}

func TestHittingTimesContextPreCanceled(t *testing.T) {
	forceLevelSchedule(t)
	c := chainOf(t, [][]arc{{{1, 0.5}, {0, 0.5}}, {{2, 1}}, {{2, 1}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		c.workers = workers
		if _, err := c.HittingTimesContext(ctx, []bool{false, false, true}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-canceled HittingTimesContext: err = %v, want a wrapped context.Canceled", workers, err)
		}
	}
}

// cancelAfter is a context whose Err turns context.Canceled after its
// first calls; it counts every call.
type cancelAfter struct {
	context.Context
	live  int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.live {
		return context.Canceled
	}
	return nil
}

// TestHittingTimesContextCanceledMidSolve cancels after the first block
// of a countdown chain, whose condensation is one singleton per level, at
// 1 and 4 workers; and at 4 workers, after the first block of a level of
// 64 singletons cut into one-block chunks, where the workers must stop
// claiming chunks instead of solving the rest of the level.
func TestHittingTimesContextCanceledMidSolve(t *testing.T) {
	forceLevelSchedule(t)
	c := countdownChain(t, 100)
	target := make([]bool, 100)
	target[0] = true
	for _, workers := range []int{1, 4} {
		c.workers = workers
		ctx := &cancelAfter{Context: context.Background(), live: 1}
		if _, err := c.HittingTimesContext(ctx, target); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want a wrapped context.Canceled", workers, err)
		}
		if calls := ctx.calls.Load(); calls != 2 {
			t.Fatalf("workers=%d: ctx checked %d times, want 2 (the first block, then the cancel)", workers, calls)
		}
	}

	save := levelGrain
	levelGrain = 1
	defer func() { levelGrain = save }()
	const width = 64
	rows := make([][]arc, width+1)
	for i := 1; i <= width; i++ {
		rows[i] = []arc{{0, 1}}
	}
	wide := chainOf(t, rows)
	wide.workers = 4
	target = make([]bool, width+1)
	target[0] = true
	ctx := &cancelAfter{Context: context.Background(), live: 1}
	if _, err := wide.HittingTimesContext(ctx, target); !errors.Is(err, context.Canceled) {
		t.Fatalf("wide level: err = %v, want a wrapped context.Canceled", err)
	}
	// One live check, then at most one cancelled check per worker.
	if calls := ctx.calls.Load(); calls > 1+int64(wide.workers) {
		t.Fatalf("wide level: ctx checked %d times, want at most %d", calls, 1+wide.workers)
	}
}
