// Command stabnetsim runs algorithms over the message-passing network
// backend: processes exchange state in messages through a composable fault
// stack (latency, loss, bursts, duplication, reorder, corruption,
// crash-recover) and the tool reports convergence — or, with -restabilize,
// recovery-from-transient-faults — distributions over repeated trials.
//
// Every run is a pure function of (instance, fault stack, seed): results
// are bit-identical across -workers and -shards settings, so the reported
// numbers are reproducible from the command line alone.
//
// Examples:
//
//	stabnetsim -alg coloring -n 1000 -trials 50 -net loss:0.1
//	stabnetsim -alg coloring -n 100000 -restabilize 1000 -trials 5 -net loss:0.05 -check-every 2
//	stabnetsim -alg herman -n 9 -trials 200
//	stabnetsim -alg dijkstra -n 12 -trials 100 -net latency:uniform:1:3,ge:0.05:0.3:0.01:0.5,crash:0.001:4
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"weakstab/internal/cli"
	"weakstab/internal/netsim"
	"weakstab/internal/stats"
)

func main() { cli.Exit("stabnetsim", run(os.Args[1:], os.Stdout)) }

// run is the whole command behind a testable seam.
func run(args []string, out io.Writer) error {
	fs := cli.FlagSet("stabnetsim")
	var (
		alg         = fs.String("alg", "coloring", "algorithm: "+strings.Join(cli.Algorithms(), ", "))
		n           = fs.Int("n", 64, "number of processes")
		topology    = fs.String("topology", "", cli.TopologyUsage)
		k           = fs.Int("k", 0, "dijkstra state count / token ring modulus override")
		transform   = fs.Bool("transform", false, "apply the §4 coin-toss transformer")
		bias        = fs.Float64("bias", 0.5, "transformer coin bias")
		seed        = fs.Int64("seed", 1, "master seed: every trial derives its own from (seed, trial)")
		trials      = fs.Int("trials", 100, "number of simulated executions")
		maxRounds   = fs.Int("max-rounds", 0, "round budget per trial (0 = 100000)")
		net         = fs.String("net", "", "comma-separated network fault stack: "+cli.FaultGrammar+" (empty = reliable synchronous network)")
		restabilize = fs.Int("restabilize", -1, "measure re-stabilization: corrupt this many processes of a legitimate configuration per trial instead of starting at random")
		checkEvery  = fs.Int("check-every", 0, "legitimacy-check period in rounds (0 = every round)")
		workers     = fs.Int("workers", 0, "worker goroutines (0 = all CPUs; never affects results)")
		shards      = fs.Int("shards", 0, "graph partitions owning state (0 = auto; never affects results)")
	)
	// Observability and profilers bracket the whole batch; both write to
	// side channels only, so the report on out stays byte-identical with
	// them on, and the manifest records the effective master seed every
	// trial derives from.
	return cli.Run(fs, args, true, func(orun *cli.ObsRun) error {
		orun.SetSeed(*seed)
		spec := cli.Spec{Algorithm: *alg, N: *n, Topology: *topology, K: *k,
			Transform: *transform, Bias: *bias, Seed: *seed}
		a, err := spec.Build()
		if err != nil {
			return err
		}
		faults, err := cli.ParseFaults(*net)
		if err != nil {
			return err
		}
		opts := netsim.Options{
			MaxRounds: *maxRounds, Seed: *seed, Faults: faults,
			Workers: *workers, Shards: *shards, CheckEvery: *checkEvery,
		}

		network := "reliable (synchronous, latency 1)"
		if len(faults) > 0 {
			names := make([]string, len(faults))
			for i, f := range faults {
				names[i] = f.Name()
			}
			network = strings.Join(names, " → ")
		}
		fmt.Fprintf(out, "%s over message-passing network: %s\n", a.Name(), network)

		var res netsim.TrialResult
		var what string
		if *restabilize >= 0 {
			what = "re-stabilization rounds"
			fmt.Fprintf(out, "%d trials from a legitimate configuration with %d corrupted processes (seed %d)\n",
				*trials, *restabilize, *seed)
			res, err = netsim.RestabilizationContext(context.Background(), a, *trials, *restabilize, opts)
		} else {
			what = "convergence rounds"
			fmt.Fprintf(out, "%d trials from uniformly random configurations (seed %d)\n", *trials, *seed)
			res, err = netsim.TrialsContext(context.Background(), a, *trials, opts)
		}
		if err != nil {
			return err
		}

		// Summary and CDF cover the converged trials only: print the
		// censoring denominator in the summary line and the failure rate
		// ahead of the distribution, so the statistics are never read as
		// whole-batch.
		fmt.Fprintf(out, "  %s: %s\n", what, res.Summary.StringOf(*trials))
		if res.Failures > 0 {
			fmt.Fprintf(out, "  failure rate: %.1f%% (%d of %d trials did not converge; distribution below covers converged trials only)\n",
				100*float64(res.Failures)/float64(*trials), res.Failures, *trials)
		}
		if len(res.CDF) > 0 {
			fmt.Fprintf(out, "  distribution: %s\n", stats.FormatCDF(res.CDF))
		}
		fmt.Fprintf(out, "  messages: sent=%d delivered=%d dropped-at-crashed=%d\n",
			res.Sent, res.Delivered, res.DroppedCrash)
		for _, c := range netsim.FaultCounts(faults) {
			fmt.Fprintf(out, "  fault events: %s=%d\n", c.Name, c.N)
		}
		orun.AddExtra("trials", *trials)
		orun.AddExtra("failures", res.Failures)
		if res.Failures > 0 {
			fmt.Fprintf(out, "  FAILURES: %d trials did not converge within the round budget\n", res.Failures)
			return fmt.Errorf("%d of %d trials failed", res.Failures, *trials)
		}
		return nil
	})
}
