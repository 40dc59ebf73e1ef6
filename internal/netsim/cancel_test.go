package netsim

// Cancellation and failure tests for the simulator: the run loop checks
// its context at legitimacy-check round boundaries, so a canceled
// simulation stops within one check interval and names the round it
// stopped at; a panic in a shard reaches the caller.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/sim"
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

// panicAlg panics in its guard, as a buggy algorithm would, from inside a
// shard's phase.
type panicAlg struct{ protocol.Algorithm }

func (panicAlg) EnabledAction(protocol.Configuration, int) int { panic("guard exploded") }

// TestShardPanicReachesCaller pins that a panic in a shard worker is
// re-raised on the goroutine that called RunOnContext, where a caller (the
// service's job runner) can recover it, instead of killing the process.
func TestShardPanicReachesCaller(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	init := protocol.RandomConfiguration(a, sim.TrialRNG(7, 0))
	var got any
	func() {
		defer func() { got = recover() }()
		RunOnContext(t.Context(), top, panicAlg{a}, init, Options{MaxRounds: 10, Seed: 1, Workers: 2, Shards: 4})
	}()
	if got == nil {
		t.Fatal("shard panic was not re-raised on the caller")
	}
	if msg := fmt.Sprint(got); !strings.Contains(msg, "guard exploded") || !strings.Contains(msg, "panicAlg.EnabledAction") {
		t.Fatalf("re-raised value does not carry the panic and its frame:\n%s", msg)
	}
}
