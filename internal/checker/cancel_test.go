package checker

// Cancellation tests for the k-fault sweep: the walk checks its context
// at every radius boundary, so a cancel fired from the sweep.radius event
// stops before the next radius is enumerated.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/obs"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func TestSweepKFaultsContextPreCanceled(t *testing.T) {
	ring, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SweepKFaultsContext(ctx, nil, ring, scheduler.CentralPolicy, 3, statespace.Options{}, true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sweep: err = %v, want a wrapped context.Canceled", err)
	}
}

// TestSweepKFaultsContextCancelAtRadius cancels from the first
// sweep.radius event; the walk must stop at the next radius boundary
// with an error naming it, instead of finishing the remaining radii.
func TestSweepKFaultsContextCancelAtRadius(t *testing.T) {
	ring, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := obs.New()
	var radii int
	o.AddHook(func(name string, _ any) {
		if name == "sweep.radius" {
			radii++
			cancel()
		}
	})
	// stopAtBreak=false would walk all of kmax; the cancel must cut the
	// walk short well before that.
	_, err = SweepKFaultsContext(ctx, nil, ring, scheduler.CentralPolicy, 3, statespace.Options{Obs: o}, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: err = %v, want a wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at radius") {
		t.Fatalf("error %q does not name the radius boundary", err)
	}
	if radii != 1 {
		t.Fatalf("sweep sealed %d radii after the cancel, want exactly 1", radii)
	}
}
