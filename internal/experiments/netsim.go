package experiments

// E20 — validation of the message-passing simulation backend against the
// exact engine, plus a fault-injection study the exact engine cannot touch.
//
// The backend's anchor is an equivalence: over a fault-free network with
// one-round latency, a netsim round is exactly one synchronous daemon step
// (round r's deliveries are the states published after round r-1, so every
// guard reads the pre-step configuration). E20 checks that equivalence two
// ways — exactly, state by state, on Dijkstra's rooted ring (deterministic,
// converging from every configuration), and statistically on Herman's
// probabilistic ring (empirical mean vs the exact uniform-start mean
// hitting time within normal-theory confidence bounds). It then leaves the
// exact engine behind: a loss sweep over a coloring ring far beyond
// enumerable size, reporting the re-stabilization distribution under
// increasingly unsupportive networks.

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/netsim"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Message-passing backend: exact validation and network-fault study",
		PaperClaim: "Simulation over an unreliable network reproduces the synchronous daemon " +
			"exactly when the network is reliable, and degrades gracefully — not catastrophically — " +
			"under the unsupportive environments (loss, bursts, crashes) of the robustness literature.",
		Run: runNetsimValidation,
	})
}

func runNetsimValidation(ctx context.Context, w io.Writer, opt Options) error {
	if err := netsimExactParity(ctx, w, opt); err != nil {
		return err
	}
	if err := netsimStatisticalParity(ctx, w, opt); err != nil {
		return err
	}
	return netsimLossSweep(ctx, w, opt)
}

// netsimExactParity replays every configuration of Dijkstra's rooted ring
// through the fault-free network and demands the convergence round equal
// the exact synchronous hitting time, state by state.
func netsimExactParity(ctx context.Context, w io.Writer, opt Options) error {
	n, k := 5, 5
	if opt.Quick {
		n, k = 4, 4
	}
	a, err := dijkstra.New(n, k)
	if err != nil {
		return err
	}
	sp, err := statespace.BuildContext(ctx, a, scheduler.SynchronousPolicy, statespace.Options{Workers: opt.Workers})
	if err != nil {
		return err
	}
	chain, err := markov.FromSpace(sp)
	if err != nil {
		return err
	}
	h, err := chain.HittingTimesContext(ctx, markov.TargetFromSpace(sp))
	if err != nil {
		return err
	}
	top, err := netsim.NewTopology(a)
	if err != nil {
		return err
	}
	byRound := map[int]int{}
	maxRound := 0
	cfg := make(protocol.Configuration, n)
	for g := int64(0); g < sp.Enc.Total(); g++ {
		cfg = sp.Enc.Decode(g, cfg)
		res, err := netsim.RunOnContext(ctx, top, a, cfg, netsim.Options{MaxRounds: 1000, Seed: opt.seed()})
		if err != nil {
			return err
		}
		if !res.Converged || float64(res.Rounds) != h[g] {
			return fmt.Errorf("E20: state %d: netsim %d rounds (converged=%v), exact hitting time %g",
				g, res.Rounds, res.Converged, h[g])
		}
		byRound[res.Rounds]++
		if res.Rounds > maxRound {
			maxRound = res.Rounds
		}
	}
	fmt.Fprintf(w, "Exact parity — %s, fault-free network vs synchronous daemon:\n", a.Name())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "convergence round\tconfigurations\texact match")
	for r := 0; r <= maxRound; r++ {
		if byRound[r] > 0 {
			fmt.Fprintf(tw, "%d\t%d\tyes\n", r, byRound[r])
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "all %d configurations: simulated round == exact hitting time\n\n", sp.Enc.Total())
	return nil
}

// netsimStatisticalParity compares the empirical mean convergence round of
// Herman's ring over the fault-free network against the exact uniform-start
// mean hitting time.
func netsimStatisticalParity(ctx context.Context, w io.Writer, opt Options) error {
	n := 7
	trials := opt.trials(800, 200)
	a, err := herman.New(n)
	if err != nil {
		return err
	}
	sp, err := statespace.BuildContext(ctx, a, scheduler.SynchronousPolicy, statespace.Options{Workers: opt.Workers})
	if err != nil {
		return err
	}
	chain, err := markov.FromSpace(sp)
	if err != nil {
		return err
	}
	h, err := chain.HittingTimesContext(ctx, markov.TargetFromSpace(sp))
	if err != nil {
		return err
	}
	exact := 0.0
	for _, v := range h {
		exact += v
	}
	exact /= float64(len(h))

	res, err := netsim.TrialsContext(ctx, a, trials, netsim.Options{MaxRounds: 1_000_000, Seed: opt.seed()})
	if err != nil {
		return err
	}
	if res.Failures > 0 {
		return fmt.Errorf("E20: %d herman trials failed to converge", res.Failures)
	}
	se := res.Summary.Std / math.Sqrt(float64(trials))
	diff := math.Abs(res.Summary.Mean - exact)
	fmt.Fprintf(w, "Statistical parity — %s, %d random-start trials:\n", a.Name(), trials)
	fmt.Fprintf(w, "  exact uniform-start mean hitting time: %.4f rounds\n", exact)
	fmt.Fprintf(w, "  simulated mean: %.4f ± %.4f (95%% CI), |diff| = %.4f\n", res.Summary.Mean, 1.96*se, diff)
	if diff > 4*se+0.05 {
		return fmt.Errorf("E20: herman mean %g deviates from exact %g beyond 4·SE %g",
			res.Summary.Mean, exact, 4*se)
	}
	fmt.Fprintf(w, "  within 4·SE = %.4f: statistically consistent\n\n", 4*se)
	return nil
}

// netsimLossSweep measures re-stabilization of a large coloring ring under
// increasing i.i.d. loss. The p=0 row is the control and exposes a genuine
// phenomenon rather than a bug: over a perfectly reliable synchronous
// network, greedy coloring livelocks — adjacent same-colored processes
// recompute in lockstep and swap colors forever, the daemon-side symmetry
// problem the paper resolves with randomness. Here message loss itself is
// the symmetry breaker, so the faulty rows must converge while the
// fault-free row is allowed (expected, even) to fail.
func netsimLossSweep(ctx context.Context, w io.Writer, opt Options) error {
	n, faults := 4096, 128
	trials := opt.trials(20, 6)
	if opt.Quick {
		n, faults = 512, 32
	}
	g, err := graph.Ring(n)
	if err != nil {
		return err
	}
	a, err := coloring.New(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Network-fault study — %s, %d corrupted processes per trial, %d trials:\n", a.Name(), faults, trials)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "loss rate\tmean rounds\tp95\tmax\tlivelocked")
	budget := 2000
	prevMean := 0.0
	var lastCDF string
	for _, p := range []float64{0, 0.1, 0.2, 0.3} {
		var fs []netsim.Fault
		if p > 0 {
			fs = []netsim.Fault{&netsim.Loss{P: p}}
		}
		res, err := netsim.RestabilizationContext(ctx, a, trials, faults, netsim.Options{
			MaxRounds: budget, Seed: opt.seed(), Faults: fs,
		})
		if err != nil {
			return err
		}
		if p == 0 {
			// The control row: only livelock-free trials have round counts.
			if res.Failures == 0 {
				fmt.Fprintf(tw, "0%%\t%.1f\t%.1f\t%.0f\t0\n",
					res.Summary.Mean, res.Summary.P95, res.Summary.Max)
			} else {
				fmt.Fprintf(tw, "0%%\t—\t—\t—\t%d/%d (lockstep livelock)\n", res.Failures, trials)
			}
			continue
		}
		if res.Failures > 0 {
			return fmt.Errorf("E20: loss %g: %d of %d trials never re-stabilized within %d rounds",
				p, res.Failures, trials, budget)
		}
		fmt.Fprintf(tw, "%.0f%%\t%.1f\t%.1f\t%.0f\t0\n",
			p*100, res.Summary.Mean, res.Summary.P95, res.Summary.Max)
		if prevMean > 0 && res.Summary.Mean > 100*prevMean {
			tw.Flush()
			return fmt.Errorf("E20: loss %g: mean %g rounds is a catastrophic blow-up over %g", p, res.Summary.Mean, prevMean)
		}
		prevMean = res.Summary.Mean
		lastCDF = stats.FormatCDF(res.CDF)
	}
	tw.Flush()
	fmt.Fprintf(w, "30%% loss re-stabilization CDF: %s\n", lastCDF)
	fmt.Fprintln(w, "loss acts as the symmetry breaker: the reliable synchronous network livelocks, every lossy one converges")
	return nil
}
