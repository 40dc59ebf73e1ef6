// Command stabsim runs Monte-Carlo simulations: convergence-time
// statistics from random initial configurations, optionally with periodic
// transient-fault bursts, under any of the library's schedulers.
//
// Examples:
//
//	stabsim -alg tokenring -n 32 -transform -sched distributed -trials 500
//	stabsim -alg leadertree -n 16 -topology random -sched central -trials 200
//	stabsim -alg dijkstra -n 12 -sched roundrobin -trials 100
//	stabsim -alg tokenring -n 16 -transform -faults 3 -bursts 50
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"weakstab/internal/cli"
	"weakstab/internal/sim"
)

// errFailures marks a batch whose report counts its failed runs.
var errFailures = errors.New("some runs did not converge")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errFailures) {
		os.Exit(1) // the report lists the failures
	}
	cli.Exit("stabsim", err)
}

// run is the whole command behind a testable seam: the simulation inside
// cli.Run's scope, printed to an injected writer.
func run(args []string, out io.Writer) error {
	fs := cli.FlagSet("stabsim")
	var (
		alg       = fs.String("alg", "tokenring", "algorithm: "+strings.Join(cli.Algorithms(), ", "))
		n         = fs.Int("n", 8, "number of processes")
		topology  = fs.String("topology", "", cli.TopologyUsage)
		k         = fs.Int("k", 0, "dijkstra state count / token ring modulus override")
		transform = fs.Bool("transform", false, "apply the §4 coin-toss transformer")
		bias      = fs.Float64("bias", 0.5, "transformer coin bias")
		sched     = fs.String("sched", "distributed", "scheduler: central, distributed, synchronous, roundrobin, lexmin")
		trials    = fs.Int("trials", 200, "number of runs")
		maxSteps  = fs.Int("max-steps", 1_000_000, "step budget per run")
		seed      = fs.Int64("seed", 1, "random seed")
		faults    = fs.Int("faults", 0, "fault-injection mode: corrupt this many processes per burst")
		bursts    = fs.Int("bursts", 50, "number of fault bursts (with -faults)")
		period    = fs.Int("period", 20, "legitimate steps between bursts (with -faults)")
	)
	// The effective seed is printed on every report line and recorded in
	// the manifest, so any run is replayable from either.
	return cli.Run(fs, args, false, func(orun *cli.ObsRun) error {
		orun.SetSeed(*seed)
		spec := cli.Spec{Algorithm: *alg, N: *n, Topology: *topology, K: *k,
			Transform: *transform, Bias: *bias, Seed: *seed}
		a, err := spec.Build()
		if err != nil {
			return err
		}
		s, err := cli.BuildScheduler(*sched)
		if err != nil {
			return err
		}
		opts := sim.Options{MaxSteps: *maxSteps}
		if *faults > 0 {
			summary, err := sim.FaultRecovery(a, s, *bursts, *faults, *period, *seed, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s under %s, %d bursts of %d corrupted processes (seed %d):\n",
				a.Name(), s.Name(), *bursts, *faults, *seed)
			fmt.Fprintf(out, "  re-stabilization steps: %s\n", summary)
			return nil
		}
		summary, failures := sim.Trials(a, s, *trials, *seed, opts)
		fmt.Fprintf(out, "%s under %s, %d random-start trials (seed %d):\n", a.Name(), s.Name(), *trials, *seed)
		fmt.Fprintf(out, "  convergence steps: %s\n", summary)
		orun.AddExtra("trials", *trials)
		orun.AddExtra("failures", failures)
		if failures > 0 {
			fmt.Fprintf(out, "  FAILURES: %d runs did not converge within %d steps\n", failures, *maxSteps)
			return errFailures
		}
		return nil
	})
}
