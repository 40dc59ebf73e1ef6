package markov

// Cancellation test for the hitting-time solver: HittingTimesContext
// checks its context at block boundaries, so a pre-canceled context
// fails before any block is solved.

import (
	"context"
	"errors"
	"testing"
)

func TestHittingTimesContextPreCanceled(t *testing.T) {
	c := chainOf(t, [][]arc{{{1, 0.5}, {0, 0.5}}, {{2, 1}}, {{2, 1}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.HittingTimesContext(ctx, []bool{false, false, true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled HittingTimesContext: err = %v, want a wrapped context.Canceled", err)
	}
}
