// Command stabtrace prints an execution of any instance as an ASCII
// table, one row per step:
//
//	stabtrace -alg tokenring -n 5 -sched central -steps 12
//
// The paper's Figures 1–3 are drawn, and checked against the paper, by
// experiments E1–E3 (stabbench -run E1).
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"weakstab/internal/cli"
	"weakstab/internal/protocol"
	"weakstab/internal/trace"
)

// errUsage is a run with no instance to trace.
var errUsage = fmt.Errorf("%w: pass -alg <name> (the paper's figures are stabbench -run E1|E2|E3)", cli.ErrUsage)

func main() { cli.Exit("stabtrace", run(os.Args[1:], os.Stdout)) }

// run is the whole command behind a testable seam: the trace inside
// cli.Run's scope, printed to an injected writer.
func run(args []string, out io.Writer) error {
	fs := cli.FlagSet("stabtrace")
	var (
		alg   = fs.String("alg", "", "algorithm to trace: "+strings.Join(cli.Algorithms(), ", "))
		n     = fs.Int("n", 6, "number of processes")
		sched = fs.String("sched", "central", "scheduler")
		steps = fs.Int("steps", 10, "steps to record")
		seed  = fs.Int64("seed", 1, "random seed")
	)
	return cli.Run(fs, args, false, func(orun *cli.ObsRun) error {
		orun.SetSeed(*seed)
		return record(out, *alg, *n, *sched, *steps, *seed)
	})
}

// record traces steps steps of the instance from a random configuration.
func record(out io.Writer, alg string, n int, sched string, steps int, seed int64) error {
	if alg == "" {
		return errUsage
	}
	a, err := cli.Spec{Algorithm: alg, N: n, Seed: seed}.Build()
	if err != nil {
		return err
	}
	s, err := cli.BuildScheduler(sched)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Record(a, s, protocol.RandomConfiguration(a, rng), rng, steps)
	trace.RenderTable(out, tr)
	return nil
}
