package netsim

// Cancellation tests for the simulator: the run loop checks its context
// at legitimacy-check round boundaries, so a canceled simulation stops
// within one check interval and names the round it stopped at.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
)

func TestRunContextPreCanceled(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	// An illegitimate start (two tokens) so the round-0 check cannot
	// convert the cancel into a legitimate convergence.
	init := protocol.Configuration{1, 0, 1, 0, 0}
	top, err := NewTopology(ring)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunOnContext(ctx, top, ring, init, Options{MaxRounds: 1000, Seed: 7})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled RunOnContext: err = %v, want a wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at round") {
		t.Fatalf("error %q does not name the round boundary", err)
	}
}

func TestTrialsContextPreCanceled(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrialsContext(ctx, ring, 8, Options{MaxRounds: 1000, Seed: 7}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled TrialsContext: err = %v, want a wrapped context.Canceled", err)
	}
}
