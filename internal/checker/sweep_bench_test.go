package checker

// PR-5 benchmarks: the incremental k-fault sweep against the per-k
// from-scratch pipeline on the 14-ring (3^14 ≈ 4.8M configurations, balls
// of a few thousand states), and the closed-form seed enumeration against
// the full-range legitimacy scan it replaces. The sweep-ball workload of
// bench/ measures the sweep end to end.

import (
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

const benchSweepK = 2

func benchRing14(b *testing.B) *tokenring.Algorithm {
	b.Helper()
	a, err := tokenring.New(14)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkKSweepIncremental measures the new sweep: one incremental ball
// enumeration and one incremental closure exploration for the whole
// k = 0..2 walk, seeded from the closed-form legitimate set.
func BenchmarkKSweepIncremental(b *testing.B) {
	a := benchRing14(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SweepKFaultsContext(b.Context(), nil, a, scheduler.CentralPolicy, benchSweepK, statespace.Options{}, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Verdicts) != benchSweepK+1 {
			b.Fatal("missing verdicts")
		}
	}
}

// BenchmarkKSweepFromScratch measures the pre-PR5 shape of the same walk:
// one full ball pipeline (enumeration + closure + verdict) per radius,
// each restarting from nothing.
func BenchmarkKSweepFromScratch(b *testing.B) {
	a := benchRing14(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k <= benchSweepK; k++ {
			ss, globals, dist, err := BallClosureContext(b.Context(), nil, a, scheduler.CentralPolicy, k, statespace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			v := BallVerdictAt(ss, BallLocalDistances(ss, globals, dist), k)
			if v.Configs == 0 {
				b.Fatal("empty verdict")
			}
		}
	}
}

// BenchmarkKSweepPrePR5 measures what the same walk cost before this PR:
// no closed-form seeding (every radius pays a full-range legitimacy scan
// to find its seeds) and no incrementality (every radius re-enumerates its
// ball and re-explores its closure from nothing) — the shape of running
// `stabcheck -kfaults k` in a shell loop.
func BenchmarkKSweepPrePR5(b *testing.B) {
	a := benchRing14(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k <= benchSweepK; k++ {
			ss, globals, dist, err := BallClosureContext(b.Context(), nil, scanOnly{a}, scheduler.CentralPolicy, k, statespace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			v := BallVerdictAt(ss, BallLocalDistances(ss, globals, dist), k)
			if v.Configs == 0 {
				b.Fatal("empty verdict")
			}
		}
	}
}

// BenchmarkFaultBallSeedEnumerated measures the closed-form seeding of the
// 14-ring's k=1 ball: strictly ball-sized, no index-range pass.
func BenchmarkFaultBallSeedEnumerated(b *testing.B) {
	a := benchRing14(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		globals, _, err := FaultBallContext(b.Context(), a, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(globals) == 0 {
			b.Fatal("empty ball")
		}
	}
}

// BenchmarkFaultBallSeedScan is the same enumeration with the closed form
// hidden: the parallel legitimacy scan pays for all 4.8M configurations to
// find the 42 seeds.
func BenchmarkFaultBallSeedScan(b *testing.B) {
	a := benchRing14(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		globals, _, err := FaultBallContext(b.Context(), scanOnly{a}, 1, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(globals) == 0 {
			b.Fatal("empty ball")
		}
	}
}
