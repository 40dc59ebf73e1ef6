package experiments

// E18 demonstrates the frontier-explored reachable-subspace engine on the
// k-fault workload: classifying the distance-≤k fault ball needs only the
// ball's forward closure (statespace.BuildFromContext), not the full
// configuration space, and the verdicts are bit-identical to the
// full-space ones. The experiment runs both paths, verifies the parity,
// and tabulates how many states each explores — the frontier cost follows
// the ball, the classic cost follows the space.

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

func init() {
	register(Experiment{
		ID:    "E18",
		Title: "Extension: frontier-explored fault balls (reachable-only analysis)",
		PaperClaim: "(Engineering; k-stabilization lens [2,12].) The k-fault verdicts " +
			"depend only on the fault ball's forward closure, so frontier exploration " +
			"from the ball reproduces the full-space classification bit-for-bit while " +
			"visiting a vanishing fraction of the configuration space — including for " +
			"the §4-transformed (probabilistic) systems.",
		Run: runE18,
	})
}

func runE18(ctx context.Context, w io.Writer, opt Options) error {
	// The 10-ring (3^10 = 59049 configurations) in both modes: the k=1
	// ball's closure is ~2% of the space, small enough to exhibit the
	// asymmetry; quick mode stops at k=1 (whose closure the k=2 run
	// subsumes) to keep the benchmark lean.
	const n = 10
	maxK := 2
	if opt.Quick {
		maxK = 1
	}
	inner, err := tokenring.New(n)
	if err != nil {
		return err
	}
	pol := scheduler.CentralPolicy
	ssOpt := statespace.Options{Workers: opt.Workers}

	// Full-space reference verdicts (the classic path) — through the cache,
	// so an E18 rerun loads the space instead of rebuilding it.
	fullTS, _, err := opt.Cache.BuildSpaceContext(ctx, inner, pol, ssOpt)
	if err != nil {
		return err
	}
	defer fullTS.Close() // releases the mapping on a warm zero-copy load
	full := checker.FromSpace(fullTS)
	dist := full.DistanceToLegitimate()

	// Ball-seeded frontier verdicts (the reachable-only path): one ball
	// enumeration, one closure exploration — skipped entirely on a cache
	// hit — then the verdict scans over the built subspace.
	ballSS, globals, ballDist, err := checker.BallClosureContext(ctx, opt.Cache, inner, pol, maxK, ssOpt)
	if err != nil {
		return err
	}
	if ballSS == nil {
		return fmt.Errorf("legitimate set of %s is empty", inner.Name())
	}
	defer ballSS.Close()
	verdicts := checker.BallVerdictsOver(ballSS, checker.BallLocalDistances(ballSS, globals, ballDist), maxK)
	ballSp := checker.FromSpace(ballSS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\tball configs\tpossible\tcertain\tfull-space verdict agrees")
	for k := 0; k <= maxK; k++ {
		ref := full.CheckKFaults(k, dist)
		v := verdicts[k]
		agrees := v.Configs == ref.Configs && v.Possible == ref.Possible && v.Certain == ref.Certain
		fmt.Fprintf(tw, "%d\t%d\t%v\t%v\t%v\n", k, v.Configs, v.Possible, v.Certain, agrees)
		if !agrees {
			tw.Flush()
			return fmt.Errorf("k=%d: ball verdict %+v disagrees with full-space %+v", k, v, ref)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "states explored: frontier %d (ball closure) vs full space %d — %.2f%% of the space\n",
		ballSp.NumStates(), full.NumStates(), 100*float64(ballSp.NumStates())/float64(full.NumStates()))
	if ballSp.NumStates()*4 > full.NumStates() {
		return fmt.Errorf("ball closure (%d states) is not small against the space (%d): instance too small to demonstrate the asymptotics",
			ballSp.NumStates(), full.NumStates())
	}

	// The transformed (probabilistic) system through the same frontier
	// path: closure of L under the coin-toss transformer, verified
	// convergent with probability 1 on the subspace.
	trans := transformer.New(inner)
	ss, _, _, err := checker.BallClosureContext(ctx, opt.Cache, trans, scheduler.DistributedPolicy, 0, ssOpt)
	if err != nil {
		return err
	}
	if ss == nil {
		return fmt.Errorf("legitimate set of %s is empty", trans.Name())
	}
	defer ss.Close()
	sub := checker.FromSpace(ss)
	closure := sub.CheckClosure()
	certain := sub.CheckPossibleConvergence()
	fmt.Fprintf(w, "trans(%s) closure of L: %d of %d configurations; strong closure %v, possible convergence %v\n",
		inner.Name(), ss.NumStates(), ss.TotalConfigs(), closure.Holds, certain.Holds)
	if !closure.Holds || !certain.Holds {
		return fmt.Errorf("transformed closure of L must be closed and convergent")
	}
	fmt.Fprintln(w, "shape: the frontier engine pays for the fault ball's closure, the classic engine")
	fmt.Fprintln(w, "       for the whole space — with identical verdicts")
	return nil
}
