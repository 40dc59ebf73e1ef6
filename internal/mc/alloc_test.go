package mc

import (
	"runtime"
	"testing"

	"weakstab/internal/algorithms/herman"
	"weakstab/internal/markov"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// TestRunAllocatesLittle bounds what a million-walker run allocates: the
// hitting times go into a histogram as their batches merge, and the
// batches' slot buffers are reused, so a run holds no per-walker vector.
// The bound is 2 MB; a run that kept every hit time (8 MB) or a slot
// buffer per batch (977 × 8 KiB) would exceed it.
func TestRunAllocatesLittle(t *testing.T) {
	a, err := herman.New(11)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Build(a, scheduler.SynchronousPolicy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(sp, markov.TargetFromSpace(sp))
	if err != nil {
		t.Fatal(err)
	}
	const trials, bound = 1_000_000, 2 << 20
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := e.RunContext(t.Context(), Options{Trials: trials, Seed: 1, Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("workers=%d: %d walkers, %d steps, %d B allocated", workers, res.Trials, res.WalkerSteps, alloc)
		if res.Hits != trials {
			t.Fatalf("workers=%d: %d of %d walkers hit", workers, res.Hits, trials)
		}
		if alloc > bound {
			t.Errorf("workers=%d: run allocated %d B, want at most %d", workers, alloc, bound)
		}
	}
}
