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
	"flag"
	"fmt"
	"os"

	"weakstab/internal/cli"
	"weakstab/internal/experiments"
	"weakstab/internal/spacecache"
)

func main() {
	os.Exit(run())
}

// run executes the command and returns its exit code; keeping it separate
// from main lets profile and observability teardown fire before os.Exit.
func run() int {
	var (
		runID    = flag.String("run", "", "experiment id to run (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "reduced sizes and trial counts")
		seed     = flag.Int64("seed", 1, "random seed")
		trials   = flag.Int("trials", 0, "Monte-Carlo trials override (0 = defaults)")
		workers  = flag.Int("workers", 0, "state-space exploration workers (0 = all CPUs)")
		cacheDir = flag.String("cache", "", "on-disk space cache directory: repeated runs load explored spaces instead of rebuilding them")
		mmap     = flag.Bool("mmap", true, "zero-copy mmap-backed cache loads (bit-equal to -mmap=false, which reads into heap arrays)")
	)
	var of cli.ObsFlags
	var pf cli.ProfileFlags
	of.Register(flag.CommandLine)
	pf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
			fmt.Printf("      claim: %s\n", e.PaperClaim)
		}
		return 0
	}

	var exp experiments.Experiment
	if *runID != "" {
		var ok bool
		if exp, ok = experiments.ByID(*runID); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runID)
			return 2
		}
	}

	orun, err := of.Start("stabbench", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "stabbench:", err)
		return 1
	}
	stopProf, err := pf.Start()
	if err != nil {
		orun.Finish(err)
		fmt.Fprintln(os.Stderr, "stabbench:", err)
		return 1
	}
	orun.SetSeed(*seed)
	if *runID != "" {
		orun.AddExtra("experiment", *runID)
	}

	ctx := context.Background()
	runErr := func() error {
		cache, err := spacecache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache.SetMmap(*mmap)
		opt := experiments.Options{Quick: *quick, Seed: *seed, Trials: *trials, Workers: *workers, Cache: cache}
		if *runID == "" {
			if err := experiments.RunAll(ctx, os.Stdout, opt); err != nil {
				return err
			}
			fmt.Println("all experiments verified against the paper's claims")
			return nil
		}
		fmt.Printf("==== %s — %s ====\n", exp.ID, exp.Title)
		fmt.Printf("paper claim: %s\n\n", exp.PaperClaim)
		return exp.Run(ctx, os.Stdout, opt)
	}()
	if err := stopProf(); runErr == nil {
		runErr = err
	}
	if err := orun.Finish(runErr); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", runErr)
		return 1
	}
	return 0
}
