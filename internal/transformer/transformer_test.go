package transformer

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// mustMarkov explores a under pol once and returns the chain aliasing the
// space, the space's legitimate-target vector, and the encoder.
func mustMarkov(t *testing.T, a protocol.Algorithm, pol scheduler.Policy) (*markov.Chain, []bool, *protocol.Encoder) {
	t.Helper()
	ts, err := statespace.Build(a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromSpace(ts)
	if err != nil {
		t.Fatal(err)
	}
	return chain, markov.TargetFromSpace(ts), ts.Enc
}

func mustSyncpair(t *testing.T) *syncpair.Algorithm {
	t.Helper()
	a, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustLeaderChain(t *testing.T, n int) *leadertree.Algorithm {
	t.Helper()
	g, err := graph.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBiasValidation(t *testing.T) {
	inner := mustSyncpair(t)
	for _, p := range []float64{0, 1, -0.1, 1.5} {
		if _, err := NewBiased(inner, p); err == nil {
			t.Fatalf("bias %g accepted", p)
		}
		if _, err := NewExplicitBiased(inner, p); err == nil {
			t.Fatalf("explicit bias %g accepted", p)
		}
	}
	a := New(inner)
	if a.Bias() != 0.5 {
		t.Fatalf("default bias = %g", a.Bias())
	}
}

func TestModelsValidate(t *testing.T) {
	inner := mustSyncpair(t)
	if err := protocol.Validate(New(inner), 0); err != nil {
		t.Fatal(err)
	}
	if err := protocol.Validate(NewExplicit(inner), 0); err != nil {
		t.Fatal(err)
	}
	lt := mustLeaderChain(t, 4)
	if err := protocol.Validate(New(lt), 0); err != nil {
		t.Fatal(err)
	}
	if err := protocol.Validate(NewExplicit(lt), 0); err != nil {
		t.Fatal(err)
	}
}

func TestProjectedOutcomes(t *testing.T) {
	a, err := NewBiased(mustSyncpair(t), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.Configuration{syncpair.False, syncpair.False}
	act := a.EnabledAction(cfg, 0)
	if act != syncpair.ActionA1 {
		t.Fatalf("guard changed by transformation: %d", act)
	}
	outs := a.Outcomes(cfg, 0, act)
	if len(outs) != 2 {
		t.Fatalf("outcomes = %v, want win/lose pair", outs)
	}
	if outs[0].State != syncpair.True || math.Abs(outs[0].Prob-0.25) > 1e-12 {
		t.Fatalf("win outcome = %+v", outs[0])
	}
	if outs[1].State != syncpair.False || math.Abs(outs[1].Prob-0.75) > 1e-12 {
		t.Fatalf("lose outcome = %+v", outs[1])
	}
}

func TestExplicitProjection(t *testing.T) {
	e := NewExplicit(mustSyncpair(t))
	if e.StateCount(0) != 4 {
		t.Fatalf("explicit state count = %d, want 4", e.StateCount(0))
	}
	cfg := protocol.Configuration{e.Encode(syncpair.True, false), e.Encode(syncpair.False, true)}
	proj := e.ProjectConfiguration(cfg)
	if proj[0] != syncpair.True || proj[1] != syncpair.False {
		t.Fatalf("projection = %v", proj)
	}
	if !e.Coin(cfg[1]) || e.Coin(cfg[0]) {
		t.Fatal("coin bits decoded wrong")
	}
	// Legitimacy by projection (Definition 7): any coin values.
	legit := protocol.Configuration{e.Encode(syncpair.True, true), e.Encode(syncpair.True, false)}
	if !e.Legitimate(legit) {
		t.Fatal("projected-legitimate configuration rejected")
	}
}

func TestTheorem8SynchronousProbabilisticConvergence(t *testing.T) {
	// Transformed Algorithm 2 on the Figure 3 chain converges with
	// probability 1 under the synchronous scheduler, although the
	// untransformed algorithm livelocks.
	inner := mustLeaderChain(t, 4)
	raw, rawTarget, _ := mustMarkov(t, inner, scheduler.SynchronousPolicy{})
	rawOne := raw.ReachesWithProbOne(rawTarget)
	allOne := true
	for _, b := range rawOne {
		allOne = allOne && b
	}
	if allOne {
		t.Fatal("untransformed Algorithm 2 should NOT converge w.p.1 synchronously (Figure 3)")
	}

	trans := New(inner)
	chain, target, enc := mustMarkov(t, trans, scheduler.SynchronousPolicy{})
	one := chain.ReachesWithProbOne(target)
	for s, ok := range one {
		if !ok {
			t.Fatalf("transformed Algorithm 2 fails prob-1 convergence from %v", enc.Decode(int64(s), nil))
		}
	}
}

func TestTheorem9DistributedRandomizedConvergence(t *testing.T) {
	// Transformed Algorithm 1 (n=4) converges w.p. 1 under the distributed
	// randomized scheduler.
	inner, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	trans := New(inner)
	chain, target, enc := mustMarkov(t, trans, scheduler.DistributedPolicy{})
	for s, ok := range chain.ReachesWithProbOne(target) {
		if !ok {
			t.Fatalf("transformed token ring fails prob-1 convergence from %v", enc.Decode(int64(s), nil))
		}
	}
}

func TestTransformedSyncpairExactHittingTimes(t *testing.T) {
	// Hand-computed: under the synchronous scheduler with p = 1/2,
	// h(F,F) = 8 and h(T,F) = h(F,T) = 10.
	trans := New(mustSyncpair(t))
	chain, target, enc := mustMarkov(t, trans, scheduler.SynchronousPolicy{})
	h, err := chain.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	ff := int(enc.Encode(protocol.Configuration{syncpair.False, syncpair.False}))
	tf := int(enc.Encode(protocol.Configuration{syncpair.True, syncpair.False}))
	ft := int(enc.Encode(protocol.Configuration{syncpair.False, syncpair.True}))
	if math.Abs(h[ff]-8) > 1e-9 {
		t.Fatalf("h(F,F) = %g, want 8", h[ff])
	}
	if math.Abs(h[tf]-10) > 1e-9 || math.Abs(h[ft]-10) > 1e-9 {
		t.Fatalf("h(T,F) = %g, h(F,T) = %g, want 10, 10", h[tf], h[ft])
	}
}

func TestCoinBiasMonotonicity(t *testing.T) {
	// For the synchronous transformed syncpair, the expected convergence
	// time from (F,F) is minimized near p where both-win probability p²
	// balances progress; higher p converges faster from (F,F) since
	// convergence requires both wins. Verify time decreases as p grows.
	prev := math.Inf(1)
	for _, p := range []float64{0.2, 0.4, 0.6, 0.8} {
		trans, err := NewBiased(mustSyncpair(t), p)
		if err != nil {
			t.Fatal(err)
		}
		chain, target, enc := mustMarkov(t, trans, scheduler.SynchronousPolicy{})
		h, err := chain.HittingTimes(target)
		if err != nil {
			t.Fatal(err)
		}
		ff := int(enc.Encode(protocol.Configuration{syncpair.False, syncpair.False}))
		if h[ff] >= prev {
			t.Fatalf("h(F,F) at p=%g is %g, not below %g", p, h[ff], prev)
		}
		prev = h[ff]
	}
}

func TestBisimulationExplicitVsProjected(t *testing.T) {
	// The explicit-coin and projected transformers induce the same hitting
	// times modulo projection, for every initial coin assignment.
	for _, tc := range []struct {
		name  string
		inner protocol.Deterministic
	}{
		{"syncpair", mustSyncpair(t)},
		{"leadertree-chain3", mustLeaderChain(t, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proj := New(tc.inner)
			projChain, projTarget, projEnc := mustMarkov(t, proj, scheduler.SynchronousPolicy{})
			hProj, err := projChain.HittingTimes(projTarget)
			if err != nil {
				t.Fatal(err)
			}

			expl := NewExplicit(tc.inner)
			explChain, explTarget, explEnc := mustMarkov(t, expl, scheduler.SynchronousPolicy{})
			hExpl, err := explChain.HittingTimes(explTarget)
			if err != nil {
				t.Fatal(err)
			}

			// For every explicit state, its hitting time must equal the
			// hitting time of its projection.
			n := tc.inner.Graph().N()
			cfg := make(protocol.Configuration, n)
			for s := int64(0); s < explEnc.Total(); s++ {
				cfg = explEnc.Decode(s, cfg)
				projCfg := expl.ProjectConfiguration(cfg)
				want := hProj[projEnc.Encode(projCfg)]
				got := hExpl[s]
				if math.IsInf(want, 1) != math.IsInf(got, 1) {
					t.Fatalf("divergence mismatch at %v", cfg)
				}
				if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-7 {
					t.Fatalf("hitting time mismatch at %v: explicit %g, projected %g", cfg, got, want)
				}
			}
		})
	}
}

func TestNoOpActionCollapsesToCertainOutcome(t *testing.T) {
	// If the inner action would not change the state, the projected
	// transformer returns a single certain outcome.
	a := New(noopAlg{mustSyncpair(t)})
	outs := a.Outcomes(protocol.Configuration{0, 0}, 0, syncpair.ActionA1)
	if len(outs) != 1 || outs[0].Prob != 1 {
		t.Fatalf("outcomes = %v, want single certain outcome", outs)
	}
}

// noopAlg overrides execution to keep the state unchanged.
type noopAlg struct {
	*syncpair.Algorithm
}

func (n noopAlg) DeterministicExecute(cfg protocol.Configuration, p, _ int) int {
	return cfg[p]
}

func TestNames(t *testing.T) {
	inner := mustSyncpair(t)
	if New(inner).Name() != "trans(syncpair,p=0.5)" {
		t.Fatalf("Name = %q", New(inner).Name())
	}
	if NewExplicit(inner).Name() != "trans-explicit(syncpair,p=0.5)" {
		t.Fatalf("explicit Name = %q", NewExplicit(inner).Name())
	}
	if New(inner).ActionName(syncpair.ActionA1) == "" {
		t.Fatal("empty action name")
	}
	if NewExplicit(inner).ActionName(syncpair.ActionA1) == "" {
		t.Fatal("empty explicit action name")
	}
}

// TestTransformedFrontierSubspaceParity wires the frontier engine through
// the transformer: exploring the transformed token ring only from the
// distance-≤1 fault ball must reproduce the full-space probability-1
// verdicts and hitting times bit-for-bit on the explored states — the
// transformed system's probabilistic rows (coin-toss outcome
// distributions) survive the subspace path unchanged.
func TestTransformedFrontierSubspaceParity(t *testing.T) {
	inner, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	trans := New(inner)
	pol := scheduler.DistributedPolicy{}
	full, err := statespace.Build(trans, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullChain, err := markov.FromSpace(full)
	if err != nil {
		t.Fatal(err)
	}
	fullH, err := fullChain.HittingTimes(markov.TargetFromSpace(full))
	if err != nil {
		t.Fatal(err)
	}
	// Seeds: every legitimate configuration plus its single-process
	// corruptions (the k=1 fault ball), straight off the full space.
	var seeds []int64
	cfg := make(protocol.Configuration, 4)
	for s := 0; s < full.States; s++ {
		if !full.Legit[s] {
			continue
		}
		seeds = append(seeds, int64(s))
		cfg = full.Enc.Decode(int64(s), cfg)
		for p := 0; p < 4; p++ {
			orig := cfg[p]
			for v := 0; v < trans.StateCount(p); v++ {
				if v == orig {
					continue
				}
				cfg[p] = v
				seeds = append(seeds, full.Enc.Encode(cfg))
			}
			cfg[p] = orig
		}
	}
	ss, err := statespace.BuildFromContext(t.Context(), trans, pol, seeds, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.States >= full.States {
		t.Fatalf("ball closure covers the whole transformed space (%d states)", ss.States)
	}
	chain, err := markov.FromSpace(ss)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chain.HittingTimes(markov.TargetFromSpace(ss))
	if err != nil {
		t.Fatal(err)
	}
	probOne := chain.ReachesWithProbOne(markov.TargetFromSpace(ss))
	for l := 0; l < ss.States; l++ {
		g := ss.GlobalIndex(l)
		if !probOne[l] {
			t.Fatalf("transformed subspace state %d not converging with probability 1", g)
		}
		if h[l] != fullH[g] {
			t.Fatalf("hitting time at global %d: %g (subspace) vs %g (full)", g, h[l], fullH[g])
		}
	}
}
