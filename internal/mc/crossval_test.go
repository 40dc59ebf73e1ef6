package mc

import (
	"math"
	"reflect"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// The cross-validation property suite: on instances small enough for the
// exact Markov solve, the Monte Carlo estimator must agree with it —
// mean hitting time within 4 standard errors of markov.HittingTimes
// under the matching uniform non-target start, and the empirical CDF
// within DKW bounds of markov.HittingTimeCDF from a fixed start — and
// every MC output must be bit-identical across worker counts. The
// instances cover the three kinds of space pick sees: every row
// uniform-exact (herman synchronous), a mix (tokenring central) and none
// (herman distributed); TestInstanceRowKinds pins which is which.

type instance struct {
	name   string
	build  func() (protocol.Algorithm, error)
	policy scheduler.Policy
}

func instances() []instance {
	return []instance{
		{"tokenring5/central", func() (protocol.Algorithm, error) { return tokenring.New(5) }, scheduler.CentralPolicy},
		{"tokenring6/central", func() (protocol.Algorithm, error) { return tokenring.New(6) }, scheduler.CentralPolicy},
		{"dijkstra55/central", func() (protocol.Algorithm, error) { return dijkstra.New(5, 5) }, scheduler.CentralPolicy},
		{"herman5/synchronous", func() (protocol.Algorithm, error) { return herman.New(5) }, scheduler.SynchronousPolicy},
		{"herman5/distributed", func() (protocol.Algorithm, error) { return herman.New(5) }, scheduler.DistributedPolicy},
	}
}

// buildInstance explores the space and solves it exactly, asserting the
// precondition the mean comparison needs: the target is reached with
// probability one from everywhere (these are all known-stabilizing
// instances, so a failure here is a real regression, not a skip).
func buildInstance(t *testing.T, ins instance) (*statespace.Space, *markov.Chain, []bool, []float64) {
	t.Helper()
	a, err := ins.build()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := statespace.Build(a, ins.policy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromSpace(sp)
	if err != nil {
		t.Fatal(err)
	}
	target := markov.TargetFromSpace(sp)
	for s, ok := range chain.ReachesWithProbOne(target) {
		if !ok {
			t.Fatalf("state %d does not reach the target with probability 1", s)
		}
	}
	h, err := chain.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	return sp, chain, target, h
}

func TestMCMeanMatchesExact(t *testing.T) {
	const trials = 40000
	for _, ins := range instances() {
		t.Run(ins.name, func(t *testing.T) {
			sp, _, target, h := buildInstance(t, ins)
			exact := markov.Summarize(h, target)
			if exact.Divergent != 0 {
				t.Fatalf("unexpected divergent states: %d", exact.Divergent)
			}
			e, err := New(sp, target)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunContext(t.Context(), Options{Trials: trials, Seed: 1009, MaxSteps: stepBudget(h, target)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Hits != trials || res.Divergent != 0 || res.Censored != 0 {
				t.Fatalf("hits=%d divergent=%d censored=%d, want %d clean hits",
					res.Hits, res.Divergent, res.Censored, trials)
			}
			// The uniform non-target start makes E[T] the mean of the
			// exact hitting times over the non-target states.
			se := res.Summary.Std / math.Sqrt(float64(res.Hits))
			if diff := math.Abs(res.Summary.Mean - exact.Mean); diff > 4*se {
				t.Fatalf("MC mean %g vs exact %g: |diff| %g > 4·SE %g",
					res.Summary.Mean, exact.Mean, diff, 4*se)
			}
		})
	}
}

func TestMCCDFWithinDKW(t *testing.T) {
	const trials = 40000
	// DKW: P(sup_t |ECDF(t) - CDF(t)| > eps) <= 2·exp(-2·N·eps²).
	// alpha = 1e-6 makes a spurious failure at a fixed seed effectively
	// impossible while still binding tightly (eps ≈ 0.013 at N = 40000).
	eps := math.Sqrt(math.Log(2/1e-6) / (2 * trials))
	for _, ins := range instances() {
		t.Run(ins.name, func(t *testing.T) {
			sp, chain, target, h := buildInstance(t, ins)
			// Fix the start at the worst (max hitting time) state so the
			// CDF compared is a nondegenerate one.
			from, hmax := -1, -1.0
			for s, v := range h {
				if !target[s] && v > hmax {
					from, hmax = s, v
				}
			}
			e, err := New(sp, target)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunContext(t.Context(), Options{Trials: trials, Seed: 1013, From: &from, MaxSteps: stepBudget(h, target)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Censored != 0 || res.Divergent != 0 {
				t.Fatalf("divergent=%d censored=%d, want clean hits", res.Divergent, res.Censored)
			}
			horizon := int(res.Summary.Max) + 1
			cdf, err := chain.HittingTimeCDF(target, from, horizon)
			if err != nil {
				t.Fatal(err)
			}
			// ECDF(t) = 1 for every t past the sample maximum and the
			// exact CDF is monotone toward 1, so the supremum over all t
			// is attained within the horizon.
			for tt := 0; tt <= horizon; tt++ {
				if diff := math.Abs(res.ECDF(float64(tt)) - cdf[tt]); diff > eps {
					t.Fatalf("|ECDF(%d) - CDF(%d)| = %g > DKW eps %g", tt, tt, diff, eps)
				}
			}
		})
	}
}

// TestMCWorkerIdentityOnSpaces pins worker-count bit-identity of every
// MC output field on the real explored spaces (the synthetic-chain
// variant lives in mc_test.go).
func TestMCWorkerIdentityOnSpaces(t *testing.T) {
	for _, ins := range instances() {
		t.Run(ins.name, func(t *testing.T) {
			sp, _, target, h := buildInstance(t, ins)
			e, err := New(sp, target)
			if err != nil {
				t.Fatal(err)
			}
			var base *Result
			for _, workers := range []int{1, 5, 13} {
				res, err := e.RunContext(t.Context(), Options{Trials: 4000, Seed: 77, Workers: workers, Batch: 256, MaxSteps: stepBudget(h, target)})
				if err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base = res
					continue
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("result differs between workers=1 and workers=%d", workers)
				}
			}
		})
	}
}

// TestInstanceRowKinds pins how many rows of each cross-validation space
// are uniform-exact (pick's shift path) and how many take its guide
// search, target rows included, so the suite keeps covering an
// all-uniform, a mixed and an all-general space.
func TestInstanceRowKinds(t *testing.T) {
	want := map[string][2]int{ // uniform-exact, general
		"tokenring5/central":  {10, 22},
		"tokenring6/central":  {1344, 2752},
		"dijkstra55/central":  {1705, 1420},
		"herman5/synchronous": {32, 0},
		"herman5/distributed": {0, 32},
	}
	for _, ins := range instances() {
		t.Run(ins.name, func(t *testing.T) {
			sp, _, target, _ := buildInstance(t, ins)
			e, err := New(sp, target)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]int
			for s := range e.kind {
				a, b := e.off[s], e.off[s+1]
				if a == b {
					continue // absorbing: never sampled
				}
				if rowKind(e.cum[a:b]) < 64 {
					got[0]++
				} else {
					got[1]++
				}
			}
			if got != want[ins.name] {
				t.Fatalf("uniform-exact, general rows = %v, want %v", got, want[ins.name])
			}
		})
	}
}
