package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Theorem 1: synchronous scheduler — weak iff self stabilization",
		PaperClaim: "Under a synchronous scheduler a deterministic algorithm is " +
			"weak-stabilizing iff it is self-stabilizing.",
		Run: runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Theorem 2: Algorithm 1 is weak- but not self-stabilizing",
		PaperClaim: "Token circulation with the mN counter is deterministically " +
			"weak-stabilizing on anonymous rings under the distributed strongly " +
			"fair scheduler, and not self-stabilizing.",
		Run: runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Theorem 3: no self-stabilizing leader election on anonymous trees",
		PaperClaim: "On a 4-chain the set X of mirror-symmetric configurations is " +
			"closed under synchronous steps and contains no configuration with a " +
			"distinguished leader.",
		Run: runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Theorem 4: Algorithm 2 is weak-stabilizing on anonymous trees",
		PaperClaim: "Algorithm 2 elects a leader in a weak-stabilizing way on every " +
			"tree; LC coincides with the terminal configurations (Lemma 10).",
		Run: runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Theorem 6: Gouda fairness is stronger than strong fairness",
		PaperClaim: "The 6-ring admits a strongly fair execution with two alternating " +
			"tokens that never converges, while under the randomized scheduler the " +
			"same instance converges with probability 1.",
		Run: runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Theorem 7: weak-stabilizing systems converge w.p. 1 under randomized schedulers",
		PaperClaim: "Every deterministic weak-stabilizing instance reaches L with " +
			"probability 1 under central and distributed randomized schedulers.",
		Run: runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Theorems 8–9: the transformer yields probabilistic self-stabilization",
		PaperClaim: "Trans(A) converges with probability 1 under the synchronous and " +
			"distributed randomized schedulers, including instances whose " +
			"untransformed synchronous executions livelock.",
		Run: runE10,
	})
}

func deterministicInstances(quick bool) ([]protocol.Algorithm, error) {
	var algs []protocol.Algorithm
	ringSizes := []int{4, 5, 6}
	if quick {
		ringSizes = []int{4, 5}
	}
	for _, n := range ringSizes {
		a, err := tokenring.New(n)
		if err != nil {
			return nil, err
		}
		algs = append(algs, a)
	}
	chains := []int{3, 4}
	for _, n := range chains {
		g, err := graph.Chain(n)
		if err != nil {
			return nil, err
		}
		a, err := leadertree.New(g)
		if err != nil {
			return nil, err
		}
		algs = append(algs, a)
	}
	sp, err := syncpair.New()
	if err != nil {
		return nil, err
	}
	algs = append(algs, sp)
	return algs, nil
}

func runE4(ctx context.Context, w io.Writer, opt Options) error {
	algs, err := deterministicInstances(opt.Quick)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instance\tweak(sync)\tself(sync)\tagree")
	for _, a := range algs {
		sp, err := explore(ctx, a, scheduler.SynchronousPolicy, opt)
		if err != nil {
			return err
		}
		closure := sp.CheckClosure().Holds
		weak := closure && sp.CheckPossibleConvergence().Holds
		self := closure && sp.CheckCertainConvergence().Holds
		agree := weak == self
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\n", a.Name(), weak, self, agree)
		if !agree {
			tw.Flush()
			return fmt.Errorf("%s: weak and self disagree under synchronous scheduler", a.Name())
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "verified: weak ⟺ self under the synchronous scheduler on every instance")
	return nil
}

func runE5(ctx context.Context, w io.Writer, opt Options) error {
	sizes := []int{3, 4, 5, 6, 7}
	if opt.Quick {
		sizes = []int{3, 4, 5}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N\tmN\tstates\tclosure\tpossible\tcertain\tfair-lasso")
	for _, n := range sizes {
		a, err := tokenring.New(n)
		if err != nil {
			return err
		}
		// The distributed policy covers the central one; a strongly fair
		// diverging lasso found here refutes self-stabilization under the
		// distributed strongly fair scheduler. (For n=3 the only diverging
		// executions flip all processes simultaneously, so the central
		// space alone contains no illegitimate cycle.)
		sp, err := explore(ctx, a, scheduler.DistributedPolicy, opt)
		if err != nil {
			return err
		}
		closure, possible, certain := sp.CheckClosure(), sp.CheckPossibleConvergence(), sp.CheckCertainConvergence()
		lasso := sp.FindStronglyFairLasso()
		fmt.Fprintf(tw, "%d\t%d\t%d\t%v\t%v\t%v\t%v\n",
			n, a.Modulus(), sp.NumStates(), closure.Holds, possible.Holds, certain.Holds, lasso.Found)
		if !closure.Holds || !possible.Holds {
			tw.Flush()
			return fmt.Errorf("n=%d: not weak-stabilizing", n)
		}
		if certain.Holds {
			tw.Flush()
			return fmt.Errorf("n=%d: certainly converges, contradicting non-self-stabilization", n)
		}
		if !lasso.Found {
			tw.Flush()
			return fmt.Errorf("n=%d: no strongly fair diverging lasso found", n)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "verified: weak-stabilizing with strongly fair diverging executions on every ring")
	return nil
}

func runE6(ctx context.Context, w io.Writer, opt Options) error {
	// Theorem 3's proof works on an anonymous 4-chain whose local neighbor
	// labeling is mirror-equivariant — the labeling is the adversary's
	// choice in an impossibility argument. (With the library's default
	// ascending-id labeling, A3's min-local-index tie-break is NOT
	// mirror-symmetric and the symmetric set X is not closed; the
	// mirror-equivariant labeling below restores the paper's argument,
	// and since an algorithm must work under every labeling, the
	// impossibility stands.)
	g, err := graph.MirrorChain(4)
	if err != nil {
		return err
	}
	a, err := leadertree.New(g)
	if err != nil {
		return err
	}
	// X: configurations fixed by the mirror automorphism (S1=S4, S2=S3
	// after relabeling parent pointers through the mirror).
	mirror := []int{3, 2, 1, 0}
	if !g.IsEquivariantUnder(mirror) {
		return fmt.Errorf("mirror labeling is not equivariant on the 4-chain")
	}
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return err
	}
	inX := func(cfg protocol.Configuration) bool {
		return cfg.Equal(applyAutomorphism(a, mirror, cfg))
	}
	cfg := make(protocol.Configuration, 4)
	sizeX, closed, leaderless := 0, true, true
	for idx := int64(0); idx < enc.Total(); idx++ {
		cfg = enc.Decode(idx, cfg)
		if !inX(cfg) {
			continue
		}
		sizeX++
		if len(a.Leaders(cfg)) == 1 {
			leaderless = false
		}
		// Synchronous step.
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) == 0 {
			continue
		}
		next := protocol.Step(a, cfg, enabled, nil)
		if !inX(next) {
			closed = false
			fmt.Fprintf(w, "X not closed: %v -> %v\n", cfg, next)
		}
	}
	fmt.Fprintf(w, "|X| = %d symmetric configurations; closed under synchronous steps: %v; none elects a unique leader: %v\n",
		sizeX, closed, leaderless)
	if !closed {
		return fmt.Errorf("symmetric set X is not closed — contradicts Theorem 3's argument")
	}
	if !leaderless {
		return fmt.Errorf("a symmetric configuration elects a unique leader — impossible")
	}
	// Generic equivariance: steps commute with the automorphism.
	if err := checkEquivariance(a, mirror); err != nil {
		return err
	}
	fmt.Fprintln(w, "verified: synchronous steps are equivariant and X is closed — no deterministic self-stabilizing election")
	return nil
}

// applyAutomorphism maps a leadertree configuration through a graph
// automorphism: process perm[p] adopts p's pointer, relabeled.
func applyAutomorphism(a *leadertree.Algorithm, perm []int, cfg protocol.Configuration) protocol.Configuration {
	g := a.Graph()
	out := make(protocol.Configuration, len(cfg))
	for p := range cfg {
		q := perm[p]
		par := a.Parent(cfg, p)
		if par == -1 {
			out[q] = a.Bottom(q)
			continue
		}
		i, ok := g.LocalIndex(q, perm[par])
		if !ok {
			// Automorphisms preserve adjacency; unreachable.
			out[q] = a.Bottom(q)
			continue
		}
		out[q] = i
	}
	return out
}

// checkEquivariance verifies step(σ(γ)) = σ(step(γ)) for synchronous steps
// over the full configuration space.
func checkEquivariance(a *leadertree.Algorithm, perm []int) error {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return err
	}
	cfg := make(protocol.Configuration, a.Graph().N())
	for idx := int64(0); idx < enc.Total(); idx++ {
		cfg = enc.Decode(idx, cfg)
		enabled := protocol.EnabledProcesses(a, cfg)
		stepped := protocol.Step(a, cfg, enabled, nil)
		mapped := applyAutomorphism(a, perm, cfg)
		mappedEnabled := protocol.EnabledProcesses(a, mapped)
		steppedMapped := protocol.Step(a, mapped, mappedEnabled, nil)
		if !steppedMapped.Equal(applyAutomorphism(a, perm, stepped)) {
			return fmt.Errorf("equivariance fails at %v", cfg)
		}
	}
	return nil
}

func runE7(ctx context.Context, w io.Writer, opt Options) error {
	maxN := 6
	if opt.Quick {
		maxN = 5
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N\ttrees\tall-weak\tLC=terminal")
	for n := 4; n <= maxN; n++ {
		trees, weakAll, lcAll := 0, true, true
		err := graph.AllLabeledTrees(n, func(g *graph.Graph) bool {
			trees++
			a, err := leadertree.New(g)
			if err != nil {
				weakAll = false
				return false
			}
			sp, err := explore(ctx, a, scheduler.CentralPolicy, opt)
			if err != nil || !sp.CheckClosure().Holds || !sp.CheckPossibleConvergence().Holds {
				weakAll = false
				return false
			}
			// Lemma 10 on this tree.
			enc, err := protocol.NewEncoder(a, 0)
			if err != nil {
				lcAll = false
				return false
			}
			cfg := make(protocol.Configuration, n)
			for idx := int64(0); idx < enc.Total(); idx++ {
				cfg = enc.Decode(idx, cfg)
				if a.Legitimate(cfg) != protocol.IsTerminal(a, cfg) {
					lcAll = false
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%v\n", n, trees, weakAll, lcAll)
		if !weakAll || !lcAll {
			tw.Flush()
			return fmt.Errorf("n=%d: Theorem 4 or Lemma 10 fails on some tree", n)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "verified: weak-stabilizing election with LC=terminal on every labeled tree")
	return nil
}

func runE8(ctx context.Context, w io.Writer, opt Options) error {
	a, err := tokenring.New(6)
	if err != nil {
		return err
	}
	sp, err := explore(ctx, a, scheduler.CentralPolicy, opt)
	if err != nil {
		return err
	}
	lasso := sp.FindStronglyFairLasso()
	if !lasso.Found {
		return fmt.Errorf("no strongly fair diverging lasso on the 6-ring")
	}
	fmt.Fprintf(w, "strongly fair diverging lasso: %d steps, starts at %v\n",
		len(lasso.Records), lasso.Cycle[0])
	if !scheduler.StronglyFairCycle(lasso.Records) {
		return fmt.Errorf("lasso is not strongly fair")
	}
	if scheduler.WeaklyFairCycle(lasso.Records) {
		fmt.Fprintln(w, "note: the lasso is also weakly fair")
	}
	// The same instance under the randomized central scheduler: prob-1
	// convergence everywhere with finite expected times (Gouda fairness
	// route via Theorem 7).
	rep, err := analyze(ctx, a, scheduler.CentralPolicy, opt)
	if err != nil {
		return err
	}
	if !rep.ProbabilisticallySelfStabilizing() {
		return fmt.Errorf("randomized scheduler does not converge w.p. 1")
	}
	fmt.Fprintf(w, "randomized central scheduler: probability-1 convergence, expected steps mean %.2f max %.2f\n",
		rep.ExpectedSteps.Mean, rep.ExpectedSteps.Max)
	fmt.Fprintln(w, "verified: strong fairness admits divergence; Gouda fairness (randomized) forces convergence")
	return nil
}

func runE9(ctx context.Context, w io.Writer, opt Options) error {
	algs, err := deterministicInstances(opt.Quick)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instance\tpolicy\tweak\tprob-1\tE[steps] mean\tmax")
	for _, a := range algs {
		for _, pol := range []scheduler.Policy{scheduler.CentralPolicy, scheduler.DistributedPolicy} {
			rep, err := analyze(ctx, a, pol, opt)
			if err != nil {
				return err
			}
			mean, max := "-", "-"
			if rep.ProbabilisticConvergence {
				mean = fmt.Sprintf("%.2f", rep.ExpectedSteps.Mean)
				max = fmt.Sprintf("%.2f", rep.ExpectedSteps.Max)
			}
			fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\t%s\n",
				rep.Algorithm, rep.Policy, rep.WeakStabilizing(), rep.ProbabilisticConvergence, mean, max)
			if rep.WeakStabilizing() && !rep.ProbabilisticConvergence {
				tw.Flush()
				return fmt.Errorf("%s under %s: weak-stabilizing but not probability-1 (contradicts Thm 7)",
					a.Name(), pol.Name())
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "verified: weak ⟹ probability-1 convergence under randomized schedulers")
	return nil
}

func runE10(ctx context.Context, w io.Writer, opt Options) error {
	g4, err := graph.Chain(4)
	if err != nil {
		return err
	}
	lt, err := leadertree.New(g4)
	if err != nil {
		return err
	}
	tr, err := tokenring.New(4)
	if err != nil {
		return err
	}
	sp, err := syncpair.New()
	if err != nil {
		return err
	}
	inners := []protocol.Deterministic{lt, tr, sp}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "instance\traw sync prob-1\ttrans sync prob-1\ttrans dist prob-1")
	for _, inner := range inners {
		rawOne, err := probOneEverywhere(ctx, inner, scheduler.SynchronousPolicy, opt.Workers)
		if err != nil {
			return err
		}
		trans := transformerFor(inner)
		syncOne, err := probOneEverywhere(ctx, trans, scheduler.SynchronousPolicy, opt.Workers)
		if err != nil {
			return err
		}
		distOne, err := probOneEverywhere(ctx, trans, scheduler.DistributedPolicy, opt.Workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\n", inner.Name(), rawOne, syncOne, distOne)
		if !syncOne || !distOne {
			tw.Flush()
			return fmt.Errorf("%s: transformed system fails probability-1 convergence", inner.Name())
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "verified: Trans(A) converges w.p. 1 under synchronous and distributed randomized schedulers")
	return nil
}

func probOneEverywhere(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, workers int) (bool, error) {
	ts, err := statespace.BuildContext(ctx, a, pol, statespace.Options{Workers: workers})
	if err != nil {
		return false, err
	}
	chain, err := markov.FromSpace(ts)
	if err != nil {
		return false, err
	}
	for _, ok := range chain.ReachesWithProbOne(markov.TargetFromSpace(ts)) {
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
