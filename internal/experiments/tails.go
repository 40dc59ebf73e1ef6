package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Extension: exact stabilization-time distributions (tails)",
		PaperClaim: "(Quantitative study, beyond means.) Stabilization times of " +
			"transformed weak-stabilizing algorithms are geometrically tailed: the " +
			"p99 exceeds the mean by a small constant factor, so probability-1 " +
			"convergence is also practical convergence.",
		Run: runE17,
	})
}

func runE17(ctx context.Context, w io.Writer, opt Options) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instance\tstart\tmean\tmedian\tp90\tp99\tp99/mean")

	type caseT struct {
		name    string
		alg     protocol.Algorithm
		pol     scheduler.Policy
		start   protocol.Configuration
		horizon int
	}
	tr5, err := tokenring.New(5)
	if err != nil {
		return err
	}
	sp, err := syncpair.New()
	if err != nil {
		return err
	}
	cases := []caseT{
		{"trans(tokenring N=5)", transformer.New(tr5), scheduler.DistributedPolicy,
			protocol.Configuration{0, 0, 0, 0, 0}, 600},
		{"trans(syncpair)", transformer.New(sp), scheduler.SynchronousPolicy,
			protocol.Configuration{0, 0}, 600},
		{"tokenring N=5 (raw)", tr5, scheduler.CentralPolicy,
			protocol.Configuration{0, 0, 0, 0, 0}, 600},
	}
	if !opt.Quick {
		// Raised cap: the sparse analysis layer affords the 6-ring (4096
		// configurations, ~4k transient) and a longer tail horizon.
		tr6, err := tokenring.New(6)
		if err != nil {
			return err
		}
		cases = append(cases,
			caseT{"tokenring N=6 (raw)", tr6, scheduler.CentralPolicy,
				protocol.Configuration{0, 0, 0, 0, 0, 0}, 1500},
			caseT{"trans(tokenring N=6)", transformer.New(tr6), scheduler.CentralPolicy,
				protocol.Configuration{0, 0, 0, 0, 0, 0}, 4000},
		)
	}
	for _, c := range cases {
		ts, err := statespace.BuildContext(ctx, c.alg, c.pol, statespace.Options{MaxStates: statespace.IndexLimit, Workers: opt.Workers})
		if err != nil {
			return err
		}
		chain, err := markov.FromSpace(ts)
		if err != nil {
			return err
		}
		target := markov.TargetFromSpace(ts)
		from := int(ts.Enc.Encode(c.start))
		cdf, err := chain.HittingTimeCDF(target, from, c.horizon)
		if err != nil {
			return err
		}
		if cdf[c.horizon] < 0.999 {
			return fmt.Errorf("%s: CDF only reaches %g within %d steps", c.name, cdf[c.horizon], c.horizon)
		}
		mean := 0.0
		for t := 0; t+1 < len(cdf); t++ {
			mean += 1 - cdf[t]
		}
		median := markov.CDFQuantile(cdf, 0.5)
		p90 := markov.CDFQuantile(cdf, 0.9)
		p99 := markov.CDFQuantile(cdf, 0.99)
		if median < 0 || p90 < 0 || p99 < 0 {
			return fmt.Errorf("%s: quantile outside horizon", c.name)
		}
		ratio := float64(p99) / mean
		fmt.Fprintf(tw, "%s\t%v\t%.2f\t%d\t%d\t%d\t%.2f\n",
			c.name, c.start, mean, median, p90, p99, ratio)
		if ratio > 12 {
			tw.Flush()
			return fmt.Errorf("%s: p99/mean = %.2f — tail heavier than geometric", c.name, ratio)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "shape: light (geometric) tails — p99 within a single-digit factor of the mean")
	return nil
}
