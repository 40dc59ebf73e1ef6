package statespace

import (
	"runtime"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
)

// TestBuildAllocatesFewBytesPerEdge bounds what a full-range build
// allocates per edge. A build keeps 5 bytes per edge (a successor and a
// probability code) and writes each edge twice, once into its chunk's
// fragment and once into the final arrays; the offsets, the legitimacy
// vector and the explorers' reusable buffers make up the rest.
func TestBuildAllocatesFewBytesPerEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("explores 1.9M edges")
	}
	ring, err := tokenring.NewWithModulus(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sp, err := Build(ring, scheduler.DistributedPolicy, Options{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(sp.Edges())
		t.Logf("workers=%d: %d states, %d edges, %.1f B/edge allocated", workers, sp.States, sp.Edges(), perEdge)
		if !sp.probs.Coded() {
			t.Errorf("workers=%d: probabilities not palette-coded", workers)
		}
		if perEdge > 14 {
			t.Errorf("workers=%d: build allocated %.1f B/edge, want at most 14", workers, perEdge)
		}
	}
}
