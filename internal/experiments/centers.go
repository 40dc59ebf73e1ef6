package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"weakstab/internal/algorithms/centers"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "§3.2: the log N-bit center-based leader election",
		PaperClaim: "The center-finding layer reaches a terminal configuration from any " +
			"state; composed with the one-bit tie-breaker it is a weak-stabilizing " +
			"leader election: unique-center trees elect deterministically, " +
			"two-center trees only weakly (one asymmetric step suffices), and the " +
			"elected process is a true center.",
		Run: runE16,
	})
}

func runE16(ctx context.Context, w io.Writer, opt Options) error {
	type instance struct {
		name    string
		build   func() (*graph.Graph, error)
		centers int // expected number of true centers
	}
	instances := []instance{
		{"chain(4)", func() (*graph.Graph, error) { return graph.Chain(4) }, 2},
		{"chain(5)", func() (*graph.Graph, error) { return graph.Chain(5) }, 1},
		{"star(4)", func() (*graph.Graph, error) { return graph.Star(4) }, 1},
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tree\tcenters\tfinder central\telector central\telector dist\telector sync")
	for _, inst := range instances {
		g, err := inst.build()
		if err != nil {
			return err
		}
		if got := len(g.Centers()); got != inst.centers {
			return fmt.Errorf("%s: %d true centers, want %d", inst.name, got, inst.centers)
		}
		finder, err := centers.NewFinder(g)
		if err != nil {
			return err
		}
		elector, err := centers.NewElector(g)
		if err != nil {
			return err
		}
		rf, err := analyze(ctx, finder, scheduler.CentralPolicy, opt)
		if err != nil {
			return err
		}
		if !rf.SelfStabilizing() {
			return fmt.Errorf("%s: center-finding layer must be self-stabilizing", inst.name)
		}
		var cells []string
		for _, pol := range []scheduler.Policy{
			scheduler.CentralPolicy, scheduler.DistributedPolicy, scheduler.SynchronousPolicy,
		} {
			re, err := analyze(ctx, elector, pol, opt)
			if err != nil {
				return err
			}
			cells = append(cells, re.Strongest().String())
			if !re.WeakStabilizing() && inst.centers == 1 {
				return fmt.Errorf("%s under %s: unique-center election must at least be weak", inst.name, pol.Name())
			}
			if pol.Name() != "synchronous" && !re.ProbabilisticallySelfStabilizing() {
				return fmt.Errorf("%s under %s: election must converge w.p. 1", inst.name, pol.Name())
			}
			if inst.centers == 2 && re.SelfStabilizing() {
				return fmt.Errorf("%s under %s: bicentric election cannot be deterministic (tie-break)", inst.name, pol.Name())
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n",
			inst.name, inst.centers, rf.Strongest(), cells[0], cells[1], cells[2])

		// The elected process is a true center, on every converged run.
		if err := electedIsCenter(elector, g, opt); err != nil {
			return fmt.Errorf("%s: %w", inst.name, err)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "verified: finder self-stabilizes; election is weak on bicentric trees (the")
	fmt.Fprintln(w, "          paper's tie-break case) and deterministic on unicentric ones; the")
	fmt.Fprintln(w, "          winner is always a true center")
	return nil
}

func electedIsCenter(e *centers.Elector, g *graph.Graph, opt Options) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	trueCenters := map[int]bool{}
	for _, c := range g.Centers() {
		trueCenters[c] = true
	}
	trials := opt.trials(40, 10)
	for trial := 0; trial < trials; trial++ {
		// The elector is deterministic, so only the daemon draws from rng.
		cfg := sim.Execute(e, scheduler.NewCentralRandomized(), protocol.RandomConfiguration(e, rng), rng, 100000, nil, nil).Final
		leaders := e.Leaders(cfg)
		if len(leaders) != 1 {
			return fmt.Errorf("trial %d: %d leaders after convergence", trial, len(leaders))
		}
		if !trueCenters[leaders[0]] {
			return fmt.Errorf("trial %d: elected %d is not a center", trial, leaders[0])
		}
	}
	return nil
}
