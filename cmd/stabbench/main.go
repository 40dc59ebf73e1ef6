// Command stabbench regenerates the paper's experiment tables (E1..E20;
// -list prints them).
//
// Usage:
//
//	stabbench -list
//	stabbench [-run E8] [-quick] [-seed 7] [-trials 500]
//	stabbench -run E12a -cpuprofile cpu.out -memprofile mem.out
//	stabbench -run E20 -progress -manifest run.json
//	stabbench -cache ~/.weakstab-cache   # reruns load explored spaces from disk
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"weakstab/internal/cli"
	"weakstab/internal/experiments"
	"weakstab/internal/spacecache"
)

func main() { cli.Exit("stabbench", run(os.Args[1:], os.Stdout)) }

// run is the whole command behind a testable seam: the experiments
// inside cli.Run's scope, printed to an injected writer.
func run(args []string, out io.Writer) error {
	fs := cli.FlagSet("stabbench")
	var (
		runID    = fs.String("run", "", "experiment id to run (default: all)")
		list     = fs.Bool("list", false, "list experiments and exit")
		quick    = fs.Bool("quick", false, "reduced sizes and trial counts")
		seed     = fs.Int64("seed", 1, "random seed")
		trials   = fs.Int("trials", 0, "Monte-Carlo trials override (0 = defaults)")
		workers  = fs.Int("workers", 0, "state-space exploration workers (0 = all CPUs)")
		cacheDir = fs.String("cache", "", "on-disk space cache directory: repeated runs load explored spaces instead of rebuilding them")
		mmap     = fs.Bool("mmap", true, "zero-copy mmap-backed cache loads (bit-equal to -mmap=false, which reads into heap arrays)")
	)
	return cli.Run(fs, args, true, func(orun *cli.ObsRun) error {
		if *list {
			for _, e := range experiments.All() {
				fmt.Fprintf(out, "%-5s %s\n", e.ID, e.Title)
				fmt.Fprintf(out, "      claim: %s\n", e.PaperClaim)
			}
			return nil
		}
		orun.SetSeed(*seed)
		exp, known := experiments.ByID(*runID)
		if *runID != "" {
			orun.AddExtra("experiment", *runID)
			if !known {
				return fmt.Errorf("%w: unknown experiment %q; use -list", cli.ErrUsage, *runID)
			}
		}
		cache, err := spacecache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache.SetMmap(*mmap)
		ctx := context.Background()
		opt := experiments.Options{Quick: *quick, Seed: *seed, Trials: *trials, Workers: *workers, Cache: cache}
		if *runID == "" {
			if err := experiments.RunAll(ctx, out, opt); err != nil {
				return err
			}
			fmt.Fprintln(out, "all experiments verified against the paper's claims")
			return nil
		}
		fmt.Fprintf(out, "==== %s — %s ====\n", exp.ID, exp.Title)
		fmt.Fprintf(out, "paper claim: %s\n\n", exp.PaperClaim)
		return exp.Run(ctx, out, opt)
	})
}
