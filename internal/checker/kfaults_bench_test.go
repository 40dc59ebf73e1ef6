package checker

import (
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// BenchmarkDistanceToLegitimate measures the fault-distance BFS over the
// 6-ring's 4096 configurations. The head-index queue and the reused decode
// buffer keep the pass at a handful of allocations (the queue[1:] popping
// it replaced re-grew the backing array on almost every push once the
// queue was warm).
func BenchmarkDistanceToLegitimate(b *testing.B) {
	a, err := tokenring.New(6)
	if err != nil {
		b.Fatal(err)
	}
	sp := explore(b, a, scheduler.CentralPolicy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist := sp.DistanceToLegitimate()
		if dist[0] < 0 {
			b.Fatal("unreachable distance")
		}
	}
}

// BenchmarkFaultBallEnumeration measures the direct ball enumeration (scan
// + mutation BFS, no transition exploration) for k=2 on the 8-ring.
func BenchmarkFaultBallEnumeration(b *testing.B) {
	a, err := tokenring.New(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		globals, _, err := FaultBallContext(b.Context(), a, 2, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(globals) == 0 {
			b.Fatal("empty ball")
		}
	}
}

// BenchmarkBallVerdicts measures the full ball-seeded pipeline (ball
// enumeration + frontier closure + verdicts) against the 8-ring, the
// workload `stabcheck -kfaults 2` now runs instead of a full-space build.
func BenchmarkBallVerdicts(b *testing.B) {
	a, err := tokenring.New(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, globals, dist, err := BallClosureContext(b.Context(), nil, a, scheduler.CentralPolicy, 2, statespace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if verdicts := BallVerdictsOver(ss, BallLocalDistances(ss, globals, dist), 2); len(verdicts) != 3 {
			b.Fatal("missing verdicts")
		}
	}
}
