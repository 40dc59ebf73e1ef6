package statespace

// Cooperative-cancellation tests for the exploration engines: a context
// canceled before the call fails immediately, and one canceled while the
// frontier runs stops at the next shell boundary — the granularity the
// Context variants promise.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/obs"
	"weakstab/internal/scheduler"
)

func TestBuildContextPreCanceled(t *testing.T) {
	ring, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, ring, scheduler.CentralPolicy, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled BuildContext: err = %v, want a wrapped context.Canceled", err)
	}
}

// TestBuildFromContextCancelAtShell cancels mid-exploration, from inside
// the exploration itself: an obs hook fires the cancel on the first
// frontier.shell event, and the builder must stop at the next shell
// boundary with an error naming the shell and wrapping context.Canceled.
func TestBuildFromContextCancelAtShell(t *testing.T) {
	ring, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := obs.New()
	o.AddHook(func(name string, _ any) {
		if name == "frontier.shell" {
			cancel()
		}
	})
	// A single seed forces a deep BFS: many shells, so the first-shell
	// cancel leaves real work undone.
	_, err = BuildFromContext(ctx, ring, scheduler.CentralPolicy, []int64{0}, Options{Obs: o})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled BuildFromContext: err = %v, want a wrapped context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at shell") {
		t.Fatalf("error %q does not name the shell boundary", err)
	}
}

// TestBuildFromContextCancelIsClean pins that a canceled build returns a
// nil system (no partial result escapes).
func TestBuildFromContextCancelIsClean(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ss, err := BuildFromContext(ctx, ring, scheduler.CentralPolicy, []int64{0}, Options{})
	if err == nil || ss != nil {
		t.Fatalf("canceled build returned (%v, %v), want (nil, error)", ss, err)
	}
}
