package netsim

import (
	"fmt"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/sim"
)

// BenchmarkNetSimRounds measures the round-batched event loop on coloring
// rings across process counts — the steps/sec scaling curve of the
// backend (process-rounds/sec is the ReportMetric). The instance runs a
// fixed number of rounds under a lossy network from a random start with
// convergence checks disabled (huge CheckEvery), so the benchmark
// measures deliver+execute+publish, not Legitimate. From a random start
// most processes recolor in the first rounds and then turn quiet, and
// the execute pass evaluates only the guards whose inputs changed (at
// n=100000 about 0.63 million guards over the 6.4 million
// process-rounds); deliveries and publications run every round.
func BenchmarkNetSimRounds(b *testing.B) {
	const rounds = 64
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, err := graph.Ring(n)
			if err != nil {
				b.Fatal(err)
			}
			a, err := coloring.New(g)
			if err != nil {
				b.Fatal(err)
			}
			top, err := NewTopology(a)
			if err != nil {
				b.Fatal(err)
			}
			init := protocol.RandomConfiguration(a, sim.TrialRNG(1, 0))
			opts := Options{
				MaxRounds: rounds, CheckEvery: 1 << 30, Seed: 7,
				Faults: []Fault{&Loss{P: 0.05}},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunOnContext(b.Context(), top, a, init, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Sent == 0 {
					b.Fatal("no traffic")
				}
			}
			b.ReportMetric(float64(n)*rounds*float64(b.N)/b.Elapsed().Seconds(), "proc-rounds/sec")
		})
	}
}
