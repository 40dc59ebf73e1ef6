// Command stabcheck classifies an algorithm instance in the paper's
// stabilization hierarchy by exhaustive state-space exploration and exact
// Markov analysis: strong closure, possible/certain/probability-1
// convergence, strongly fair diverging lassos, and the resulting class
// (self / probabilistic / weak / none).
//
// The configuration space is explored exactly once — in parallel, on
// -workers workers — and shared by every analysis the flags request. Two
// exploration modes exist:
//
//   - default: the full mixed-radix index range (every configuration);
//   - -reachable: a frontier BFS from a seed set (-from, or the
//     legitimate set when -from is omitted) discovers only the reachable
//     subspace, so the cost scales with the forward closure of the seeds
//     instead of the whole space. Properties then quantify over the
//     explored states.
//
// The -kfaults verdicts themselves always pay for the fault ball, not the
// space: the distance-≤k ball is enumerated directly (no transition
// exploration; in closed form — zero full-range passes — when the
// algorithm implements protocol.LegitEnumerator) and only its forward
// closure is frontier-explored; the verdicts are bit-identical to the
// full-space ones. Combining `-reachable -kfaults k` is ball-sized end to
// end: the single ball enumeration and single closure exploration feed
// both the classification report (which then quantifies over the ball's
// closure) and the per-k verdicts.
//
// -kmax K replaces the single radius with an incremental sweep: k walks
// upward from 0, each radius extending the previous ball and its closure
// subspace instead of restarting — one ball enumeration and one closure
// exploration in total — and the walk stops at the smallest k that breaks
// certain convergence (the largest tolerable fault count), or at K.
//
// With -cache DIR, explored spaces, subspaces and fault-ball closures are
// persisted to (and loaded from) an on-disk cache keyed by (algorithm,
// instance, policy[, seed set | k]); a warm run re-derives the ball from
// its cached closure, so a repeated invocation skips enumeration and
// exploration entirely and prints a bit-identical report.
//
// Examples:
//
//	stabcheck -alg tokenring -n 6 -policy central
//	stabcheck -alg leadertree -n 4 -topology chain -policy synchronous
//	stabcheck -alg leadertree -n 4 -transform -policy synchronous
//	stabcheck -alg dijkstra -n 4 -k 4 -policy distributed
//	stabcheck -alg tokenring -n 14 -reachable -kfaults 2   # ball-sized, end to end
//	stabcheck -alg tokenring -n 14 -kmax 3                 # smallest breaking k, one incremental pass
//	stabcheck -alg tokenring -n 10 -reachable              # closure of L
//	stabcheck -alg tokenring -n 6 -reachable -from 1,0,2,1,0,3
//	stabcheck -alg tokenring -n 11 -cache ~/.weakstab-cache  # warm runs skip exploration
//	stabcheck -alg tokenring -n 6 -json                    # the stabserve result document
//	stabcheck -alg tokenring -n 8 -mc -trials 50000        # Monte Carlo stabilization times
//	stabcheck -alg herman -n 9 -policy synchronous -mc -ci 0.5  # sample until the CI is tight
//
// -mc replaces the exact Markov hitting-time solve with the vectorized
// Monte Carlo estimator (internal/mc): walkers sample the explored CSR
// directly, so the estimate reaches spaces whose linear solve no longer
// fits, and the output is a pure function of (instance, policy, -seed,
// -trials, -ci, -mc-steps) — bit-identical across -workers.
//
// Every analysis runs through the same job-execution path the stabserve
// daemon uses (internal/service): the command assembles a service.Request
// from its flags, drives it through a single-worker service.Manager, and
// renders the result — as the classic text report, or with -json as the
// exact result document stabserve's GET /jobs/{id}/result returns
// (byte-identical, so the two surfaces diff clean).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"weakstab/internal/checker"
	"weakstab/internal/cli"
	"weakstab/internal/protocol"
	"weakstab/internal/service"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
	"weakstab/internal/stats"
)

// errParse marks a flag-parsing failure the FlagSet has already reported
// (message + usage on stderr), so main exits 1 without printing it twice.
var errParse = errors.New("flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errParse) {
			fmt.Fprintln(os.Stderr, "stabcheck:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flag parsing, mode
// selection and report printing against an injected writer.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stabcheck", flag.ContinueOnError)
	var (
		alg       = fs.String("alg", "tokenring", "algorithm: "+strings.Join(cli.Algorithms(), ", "))
		n         = fs.Int("n", 5, "number of processes")
		topology  = fs.String("topology", "chain", "tree topology: chain, star, random, figure2")
		k         = fs.Int("k", 0, "dijkstra state count / token ring modulus override")
		transform = fs.Bool("transform", false, "apply the §4 coin-toss transformer")
		bias      = fs.Float64("bias", 0.5, "transformer coin bias")
		policy    = fs.String("policy", "central", "scheduler policy: central, distributed, synchronous")
		seed      = fs.Int64("seed", 1, "seed for random topologies")
		witness   = fs.Bool("witness", false, "print a worst-case convergence witness path")
		kfaults   = fs.Int("kfaults", -1, "also analyze convergence within k corrupted processes (k-stabilization lens; explores only the fault ball)")
		kmax      = fs.Int("kmax", -1, "incremental k-fault sweep: walk k=0..kmax, stopping at the smallest k that breaks certain convergence")
		lasso     = fs.Bool("lasso", false, "print the strongly fair diverging lasso and its Gouda-fairness verdict")
		reachable = fs.Bool("reachable", false, "explore only the subspace reachable from the seed set (-from, default: the legitimate set) instead of the full index range")
		from      = fs.String("from", "", "seed configurations for -reachable: comma-separated process states, ';' between configurations (e.g. 1,0,2;0,0,0)")
		maxStates = fs.Int64("max-states", 0, "state space cap (0 = default)")
		workers   = fs.Int("workers", 0, "exploration worker-pool size (0 = all CPUs)")
		cacheDir  = fs.String("cache", "", "on-disk space cache directory: repeated runs load the explored space instead of rebuilding it")
		mmap      = fs.Bool("mmap", true, "zero-copy mmap-backed cache loads (bit-equal to -mmap=false, which reads into heap arrays)")
		jsonOut   = fs.Bool("json", false, "emit the result as JSON — the exact document stabserve's result endpoint returns")
		mcMode    = fs.Bool("mc", false, "estimate stabilization times by Monte Carlo simulation on the explored space instead of the exact Markov solve (seeded by -seed; bit-identical across -workers)")
		trials    = fs.Int("trials", 0, "-mc walker count (0 = 10000)")
		ci        = fs.Float64("ci", 0, "-mc target 95% confidence half-width: stop early once the mean estimate is at least this tight (0 = run every trial)")
		mcSteps   = fs.Int("mc-steps", 0, "-mc per-walker step budget; walkers that exhaust it count as censored (0 = 1000000)")
	)
	var of cli.ObsFlags
	var pf cli.ProfileFlags
	of.Register(fs)
	pf.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage printed, exit 0
		}
		return errParse
	}

	// The observability scope and profilers bracket the whole analysis;
	// both write to side channels only (stderr, trace/manifest/profile
	// files), so the report on out stays byte-identical with them on.
	orun, err := of.Start("stabcheck", args)
	if err != nil {
		return err
	}
	stopProf, err := pf.Start()
	if err != nil {
		orun.Finish(err)
		return err
	}
	orun.SetSeed(*seed)
	runErr := func() error {
		cache, err := spacecache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache.SetMmap(*mmap)

		// The flags become a service.Request and run through a
		// single-worker Manager — the same job-execution path stabserve
		// drives, so CLI and daemon cannot drift apart.
		req := service.Request{Alg: *alg, N: *n, Topology: *topology, K: *k,
			Transform: *transform, Bias: *bias, Seed: *seed, Policy: *policy,
			Reachable: *reachable, From: *from, MaxStates: *maxStates, Workers: *workers}
		if *kfaults >= 0 {
			v := *kfaults
			req.KFaults = &v
		}
		if *kmax >= 0 {
			switch {
			case *kfaults >= 0:
				return fmt.Errorf("use -kfaults K for one radius or -kmax K for the incremental sweep, not both")
			case *reachable:
				return fmt.Errorf("-kmax is ball-sized by construction; drop -reachable")
			case *from != "":
				return fmt.Errorf("-kmax seeds from the legitimate set; drop -from")
			case *witness || *lasso:
				return fmt.Errorf("-kmax prints sweep verdicts only; drop -witness/-lasso or use -kfaults")
			}
			v := *kmax
			req.KMax = &v
			req.Mode = service.ModeSweep
		}
		if *mcMode {
			switch {
			case *kfaults >= 0 || *kmax >= 0:
				return fmt.Errorf("-mc estimates stabilization times by simulation; drop -kfaults/-kmax")
			case *witness || *lasso:
				return fmt.Errorf("-mc prints the estimate only; drop -witness/-lasso")
			}
			req.Mode = service.ModeMC
			req.Trials = *trials
			req.CI = *ci
			req.MCMaxSteps = *mcSteps
		} else if *trials != 0 || *ci != 0 || *mcSteps != 0 {
			return fmt.Errorf("-trials/-ci/-mc-steps tune the Monte Carlo estimator; add -mc")
		}

		deps := service.Deps{Cache: cache}
		if !*jsonOut {
			// The text report renders inside the job, while the explored
			// system is still open — -witness and -lasso walk it without
			// a second exploration.
			deps.Inspect = func(resp *service.Response, ts *statespace.Space) {
				if resp.MC != nil {
					printMC(out, resp)
					return
				}
				printReport(out, resp, ts, *witness, *lasso)
			}
		}
		mgr := service.NewManager(service.Config{Deps: deps, Workers: 1})
		defer mgr.Shutdown(context.Background())
		resp, err := mgr.Do(context.Background(), req)
		if err != nil {
			if resp != nil && resp.CoreReport != nil && !*jsonOut {
				// A hierarchy violation (a library bug) still renders the
				// offending report before failing.
				fmt.Fprint(out, resp.CoreReport)
			}
			return err
		}
		if *jsonOut {
			return resp.WriteJSON(out)
		}
		if req.Mode == service.ModeSweep {
			printSweep(out, resp)
		}
		return nil
	}()
	if err := stopProf(); runErr == nil {
		runErr = err
	}
	if err := orun.Finish(runErr); runErr == nil {
		runErr = err
	}
	return runErr
}

// printReport renders the classic text report from the job's result
// document. It runs inside the job (service.Deps.Inspect) while the
// explored system is still open, which is what lets -witness and -lasso
// walk the space without a second exploration.
func printReport(out io.Writer, resp *service.Response, ts *statespace.Space, witness, lasso bool) {
	rep := resp.CoreReport
	fmt.Fprint(out, rep)
	if rep.FairLassoFound {
		fmt.Fprintln(out, "  note: a strongly fair diverging execution exists — not self-stabilizing even under the strongly fair scheduler")
	}
	sp := checker.FromSpace(ts)
	if witness {
		printWitness(out, sp)
	}
	for _, v := range resp.KFaults {
		fmt.Fprintf(out, "  k=%d faults: %d configurations, possible=%v certain=%v\n",
			v.K, v.Configs, v.Possible, v.Certain)
	}
	if resp.Ball != nil {
		fmt.Fprintf(out, "  (ball closure: %d of %d configurations explored)\n",
			resp.Ball.ClosureStates, resp.Ball.TotalConfigs)
	}
	if lasso {
		l := sp.FindStronglyFairLasso()
		if !l.Found {
			fmt.Fprintln(out, "  no strongly fair diverging lasso found")
		} else {
			fmt.Fprintf(out, "  strongly fair diverging lasso: %d steps from %v; Gouda fair: %v\n",
				len(l.Records), l.Cycle[0], sp.GoudaFairLasso(l.Cycle))
		}
	}
}

// printMC renders the Monte Carlo stabilization-time estimate. The
// summary covers the hit walkers only, so it prints with the censoring
// denominator and the failure split ahead of the distribution — same
// discipline as stabnetsim's converged-only statistics.
func printMC(out io.Writer, resp *service.Response) {
	m, res := resp.MC, resp.MCResult
	fmt.Fprintf(out, "%s under %s scheduler (%d configurations): monte carlo stabilization-time estimate\n",
		m.Algorithm, m.Policy, m.States)
	if m.TotalConfigs > int64(m.States) {
		fmt.Fprintf(out, "  reachable subspace:   %d of %d configurations; walks stay inside it\n", m.States, m.TotalConfigs)
	}
	fmt.Fprintf(out, "  trials:               %d of %d requested (seed %d", m.Trials, m.Requested, m.Seed)
	if resp.Request.CI > 0 {
		fmt.Fprintf(out, ", early stop at ±%g", resp.Request.CI)
	}
	fmt.Fprintln(out, ")")
	if m.Divergent+m.Censored > 0 {
		fmt.Fprintf(out, "  failure rate:         %.1f%% (%d divergent, %d censored at %d steps; statistics below cover the %d hits only)\n",
			100*m.FailureRate, m.Divergent, m.Censored, m.MaxSteps, m.Hits)
	}
	fmt.Fprintf(out, "  stabilization steps:  %s\n", res.Summary.StringOf(m.Trials))
	if len(res.CDF) > 0 {
		fmt.Fprintf(out, "  distribution:         %s\n", stats.FormatCDF(res.CDF))
	}
}

// printSweep renders the -kmax walk: one verdict line per radius and the
// smallest convergence-breaking k. The sweep pays for one ball
// enumeration and one closure exploration in total — and with a warm
// cache, for neither.
func printSweep(out io.Writer, resp *service.Response) {
	s := resp.Sweep
	fmt.Fprintf(out, "incremental k-fault sweep of %s under %s scheduler (k = 0..%d)\n",
		s.Algorithm, s.Policy, s.KMax)
	for _, v := range s.Verdicts {
		fmt.Fprintf(out, "  k=%d faults: %d configurations, possible=%v certain=%v\n",
			v.K, v.Configs, v.Possible, v.Certain)
	}
	if s.BreaksCertainAt >= 0 {
		fmt.Fprintf(out, "  smallest k breaking certain convergence: %d (counterexample %v)\n",
			s.BreaksCertainAt, protocol.Configuration(s.Verdicts[s.BreaksCertainAt].Counterexample))
	} else {
		fmt.Fprintf(out, "  no k <= %d breaks certain convergence\n", s.KMax)
	}
	if s.BreaksPossibleAt >= 0 {
		fmt.Fprintf(out, "  smallest k breaking possible convergence: %d\n", s.BreaksPossibleAt)
	}
	if resp.Ball != nil {
		fmt.Fprintf(out, "  (ball closure: %d of %d configurations explored, incrementally)\n",
			resp.Ball.ClosureStates, resp.Ball.TotalConfigs)
	}
}

// printWitness prints the shortest convergence path from the configuration
// farthest from L (or reports the first configuration with none). One
// backward BFS from L prices every state's distance; the worst witness is
// reconstructed from that single pass.
func printWitness(out io.Writer, sp *checker.Space) {
	path, stuck := sp.WorstCaseWitness()
	if stuck != nil {
		fmt.Fprintf(out, "  no convergence path from %v\n", stuck)
		return
	}
	if len(path) == 0 {
		return
	}
	fmt.Fprintf(out, "  worst-case witness (%d steps):\n", len(path)-1)
	for _, cfg := range path {
		fmt.Fprintf(out, "    %v\n", cfg)
	}
}
