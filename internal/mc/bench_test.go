package mc

import (
	"testing"

	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// walkCases are the spaces the walk benchmarks sample: tokenring(8) under
// the central daemon (6,561 states, rows at most 8 wide, most of them
// general, so most steps leave the four-lane loop for the per-lane pass)
// and herman(11) under the synchronous daemon (2,048 states, rows up to
// 2,048 wide, every one uniform, so the lanes stay in registers from one
// hit to the next — the shape the mc-herman workload walks).
var walkCases = []struct {
	name   string
	build  func() (protocol.Algorithm, error)
	policy scheduler.Policy
}{
	{"tokenring8/central", func() (protocol.Algorithm, error) { return tokenring.New(8) }, scheduler.CentralPolicy},
	{"herman11/synchronous", func() (protocol.Algorithm, error) { return herman.New(11) }, scheduler.SynchronousPolicy},
}

// BenchmarkMCWalk measures raw sampling throughput on real explored
// spaces; the metric that matters is walker-steps/s. Every herman(11)
// synchronous row is uniform over a power of two, so its walk runs in
// the four-lane loop (batch.fast); in tokenring(8) central 1,413 of the
// 6,561 rows are uniform and the rest take the guide search in the
// per-lane pass.
func BenchmarkMCWalk(b *testing.B) { benchWalk(b, 0) }

// BenchmarkMCWalkSingleWorker isolates per-core throughput.
func BenchmarkMCWalkSingleWorker(b *testing.B) { benchWalk(b, 1) }

func benchWalk(b *testing.B, workers int) {
	for _, c := range walkCases {
		b.Run(c.name, func(b *testing.B) {
			a, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			sp, err := statespace.Build(a, c.policy, statespace.Options{})
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(sp, markov.TargetFromSpace(sp))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := e.RunContext(b.Context(), Options{Trials: 100_000, Seed: int64(i), Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.WalkerSteps
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(steps)/sec, "walker-steps/s")
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}
