package mc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"weakstab/internal/markov"
	"weakstab/internal/statespace"
)

// chain is a hand-built CSR transition system for synthetic test chains.
type chain struct {
	off     []int64
	succ    []int32
	prob    []float64
	workers int
}

func (c *chain) NumStates() int   { return len(c.off) - 1 }
func (c *chain) PoolWorkers() int { return c.workers }
func (c *chain) CSR() (off []int64, succ []int32, prob statespace.Probs) {
	return c.off, c.succ, statespace.WideProbs(c.prob)
}

// buildChain assembles a chain from per-state rows of (successor, prob)
// pairs. A nil row is an absorbing state.
func buildChain(rows [][]struct {
	to int32
	p  float64
}) *chain {
	c := &chain{off: make([]int64, 1, len(rows)+1)}
	for _, row := range rows {
		for _, tr := range row {
			c.succ = append(c.succ, tr.to)
			c.prob = append(c.prob, tr.p)
		}
		c.off = append(c.off, int64(len(c.succ)))
	}
	return c
}

type tr = struct {
	to int32
	p  float64
}

// geometric is the fair-coin chain: state 0 self-loops with probability
// 1/2 or moves to absorbing state 1. E[hitting time from 0] = 2.
func geometric() *chain {
	return buildChain([][]tr{
		{{0, 0.5}, {1, 0.5}},
		nil,
	})
}

func intp(v int) *int { return &v }

// stepBudget is the MaxSteps every walk in these tests runs under: 20
// times the largest finite exact hitting time h of a non-target state,
// and at least 64. At the tests' seeds no walk takes even half of it (the
// longest takes 9.7 times the largest hitting time), so no result is
// censored; a broken sampler that stops reaching the target fails within
// the budget instead of walking DefaultMaxSteps per walker.
func stepBudget(h []float64, target []bool) int {
	hmax := 0.0
	for s, v := range h {
		if !target[s] && !math.IsInf(v, 1) {
			hmax = max(hmax, v)
		}
	}
	return max(64, int(math.Ceil(20*hmax)))
}

// budget is stepBudget of the exact hitting times of target on ts.
func budget(t *testing.T, ts System, target []bool) int {
	t.Helper()
	off, succ, prob := ts.CSR()
	p := make([]float64, len(succ))
	for e := range p {
		p[e] = prob.At(int64(e))
	}
	c, err := markov.FromCSR(off, succ, p)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	return stepBudget(h, target)
}

func TestGeometricMean(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(t.Context(), Options{Trials: 20000, Seed: 7, From: intp(0), MaxSteps: budget(t, geometric(), []bool{false, true})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 20000 || res.Hits != 20000 || res.Divergent != 0 || res.Censored != 0 {
		t.Fatalf("trials=%d hits=%d divergent=%d censored=%d, want all 20000 hits",
			res.Trials, res.Hits, res.Divergent, res.Censored)
	}
	// Geometric(1/2): mean 2, std sqrt(2). 4 standard errors of slack.
	se := math.Sqrt2 / math.Sqrt(20000)
	if math.Abs(res.Summary.Mean-2) > 4*se {
		t.Fatalf("mean = %g, want 2 ± %g", res.Summary.Mean, 4*se)
	}
	if res.Summary.Min != 1 {
		t.Fatalf("min hitting time = %g, want 1", res.Summary.Min)
	}
	if res.FailureRate() != 0 {
		t.Fatalf("failure rate = %g, want 0", res.FailureRate())
	}
}

func TestUniformStartSkipsTargets(t *testing.T) {
	// States 0,1 both step straight to target 2; uniform start must never
	// pick state 2, so every walk takes exactly one step.
	c := buildChain([][]tr{
		{{2, 1}},
		{{2, 1}},
		nil,
	})
	e, err := New(c, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(t.Context(), Options{Trials: 500, Seed: 1, MaxSteps: budget(t, c, []bool{false, false, true})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 500 || res.Summary.Min != 1 || res.Summary.Max != 1 {
		t.Fatalf("hits=%d min=%g max=%g, want 500 walks of exactly 1 step",
			res.Hits, res.Summary.Min, res.Summary.Max)
	}
}

func TestDivergentAndCensored(t *testing.T) {
	// State 0 flips between hitting target 2, falling into absorbing trap
	// 1, and a self-loop that eventually resolves or censors.
	c := buildChain([][]tr{
		{{1, 0.5}, {2, 0.5}},
		nil, // absorbing non-target: divergent
		nil, // target
	})
	e, err := New(c, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(t.Context(), Options{Trials: 4000, Seed: 3, From: intp(0), MaxSteps: budget(t, c, []bool{false, false, true})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits+res.Divergent != res.Trials || res.Censored != 0 {
		t.Fatalf("hits=%d divergent=%d censored=%d of %d", res.Hits, res.Divergent, res.Censored, res.Trials)
	}
	if res.Divergent < 1800 || res.Divergent > 2200 {
		t.Fatalf("divergent = %d, want ≈2000 of 4000", res.Divergent)
	}
	if got := res.FailureRate(); math.Abs(got-float64(res.Divergent)/4000) > 1e-15 {
		t.Fatalf("failure rate = %g", got)
	}

	// An unreachable target censors every walker at the step budget.
	cyc := buildChain([][]tr{
		{{1, 1}},
		{{0, 1}},
		nil,
	})
	e2, err := New(cyc, []bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e2.RunContext(t.Context(), Options{Trials: 100, Seed: 1, MaxSteps: 64, From: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Censored != 100 || res2.Hits != 0 || res2.Divergent != 0 {
		t.Fatalf("censored=%d hits=%d divergent=%d, want all 100 censored",
			res2.Censored, res2.Hits, res2.Divergent)
	}
	if res2.MaxSteps != 64 {
		t.Fatalf("MaxSteps = %d, want 64", res2.MaxSteps)
	}
	if res2.FailureRate() != 1 {
		t.Fatalf("failure rate = %g, want 1", res2.FailureRate())
	}
}

// TestWorkerBitIdentity pins the core determinism contract: every field
// of the Result is bit-identical across worker counts and batch sizes.
func TestWorkerBitIdentity(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	steps := budget(t, geometric(), []bool{false, true})
	base, err := e.RunContext(t.Context(), Options{Trials: 5000, Seed: 42, Workers: 1, Batch: 128, MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{
		{Trials: 5000, Seed: 42, Workers: 3, Batch: 128},
		{Trials: 5000, Seed: 42, Workers: 8, Batch: 128},
		{Trials: 5000, Seed: 42, Workers: 7, Batch: 17},
		{Trials: 5000, Seed: 42, Workers: 16, Batch: 5000},
		{Trials: 5000, Seed: 42, Workers: 3, Batch: 1},
		{Trials: 5000, Seed: 42, Workers: 3, Batch: 7},
		{Trials: 5000, Seed: 42, Workers: 3, Batch: 8},
		{Trials: 5000, Seed: 42, Workers: 3, Batch: 9},
	} {
		opt.MaxSteps = steps
		got, err := e.RunContext(t.Context(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("result differs at workers=%d batch=%d:\nbase %+v\ngot  %+v",
				opt.Workers, opt.Batch, base, got)
		}
	}
	// A different seed must actually change the sample.
	other, err := e.RunContext(t.Context(), Options{Trials: 5000, Seed: 43, Workers: 1, Batch: 128, MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base.Steps, other.Steps) {
		t.Fatal("seeds 42 and 43 produced identical samples")
	}
}

// TestEarlyStopDeterministic: a deterministic one-step chain has zero
// variance, so the CI collapses immediately and the run stops after the
// first batch — at the same point for every worker count.
func TestEarlyStopDeterministic(t *testing.T) {
	c := buildChain([][]tr{
		{{1, 1}},
		nil,
	})
	e, err := New(c, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, workers := range []int{1, 4, 9} {
		res, err := e.RunContext(t.Context(), Options{Trials: 100000, Seed: 5, Workers: workers, Batch: 250, TargetCI: 0.5, From: intp(0),
			MaxSteps: budget(t, c, []bool{false, true})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != 250 {
			t.Fatalf("workers=%d: stopped at %d trials, want exactly one 250-walker batch", workers, res.Trials)
		}
		if res.Requested != 100000 {
			t.Fatalf("Requested = %d, want 100000", res.Requested)
		}
		if res.Summary.CI95() > 0.5 {
			t.Fatalf("stopped with CI %g > target 0.5", res.Summary.CI95())
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatalf("early-stopped result differs across worker counts")
		}
		prev = res
	}
}

func TestEarlyStopNoisy(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	steps := budget(t, geometric(), []bool{false, true})
	full, err := e.RunContext(t.Context(), Options{Trials: 200000, Seed: 11, From: intp(0), MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	target := 4 * full.Summary.CI95() // reachable well before 200k trials
	var prev *Result
	for _, workers := range []int{1, 6} {
		res, err := e.RunContext(t.Context(), Options{Trials: 200000, Seed: 11, Workers: workers, Batch: 1000, TargetCI: target, From: intp(0), MaxSteps: steps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials >= full.Trials {
			t.Fatalf("early stop never triggered: %d trials", res.Trials)
		}
		if res.Trials%1000 != 0 {
			t.Fatalf("stopped mid-batch at %d trials", res.Trials)
		}
		if res.Summary.CI95() > target {
			t.Fatalf("stopped with CI %g > target %g", res.Summary.CI95(), target)
		}
		if prev != nil && !reflect.DeepEqual(prev, res) {
			t.Fatal("early-stopped result differs across worker counts")
		}
		prev = res
	}
}

func TestECDF(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(t.Context(), Options{Trials: 10000, Seed: 2, From: intp(0), MaxSteps: budget(t, geometric(), []bool{false, true})})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ECDF(0); got != 0 {
		t.Fatalf("ECDF(0) = %g, want 0", got)
	}
	// P(T <= 1) = 1/2 for Geometric(1/2).
	if got := res.ECDF(1); math.Abs(got-0.5) > 0.02 {
		t.Fatalf("ECDF(1) = %g, want ≈0.5", got)
	}
	if got := res.ECDF(math.Inf(1)); got != 1 {
		t.Fatalf("ECDF(inf) = %g, want 1 (no censoring in this chain)", got)
	}
}

func TestRunContextCancel(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.RunContext(ctx, Options{Trials: 100000, Seed: 1, MaxSteps: budget(t, geometric(), []bool{false, true})})
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("error = %v, want cancellation", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geometric(), []bool{false}); err == nil {
		t.Fatal("target length mismatch accepted")
	}
	bad := buildChain([][]tr{{{0, 0.5}, {1, 0.3}}, nil})
	if _, err := New(bad, []bool{false, true}); err == nil {
		t.Fatal("sub-stochastic row accepted")
	}
	neg := buildChain([][]tr{{{0, -0.5}, {1, 1.5}}, nil})
	if _, err := New(neg, []bool{false, true}); err == nil {
		t.Fatal("negative probability accepted")
	}
}

func TestRunValidation(t *testing.T) {
	e, err := New(geometric(), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	steps := budget(t, geometric(), []bool{false, true})
	if _, err := e.RunContext(t.Context(), Options{From: intp(5), MaxSteps: steps}); err == nil {
		t.Fatal("out-of-range start state accepted")
	}
	if _, err := e.RunContext(t.Context(), Options{From: intp(-1), MaxSteps: steps}); err == nil {
		t.Fatal("negative start state accepted")
	}
	all, err := New(geometric(), []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := all.RunContext(t.Context(), Options{MaxSteps: steps}); err == nil {
		t.Fatal("all-target uniform start accepted")
	}
	// An explicit start state inside the target set is fine: T = 0.
	res, err := all.RunContext(t.Context(), Options{Trials: 10, From: intp(0), MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 10 || res.Summary.Max != 0 {
		t.Fatalf("hits=%d max=%g, want 10 immediate hits", res.Hits, res.Summary.Max)
	}
}

// refSample is the row search the guide table replaced, kept as the
// oracle: the first position in [a, b) whose cum exceeds u, by a linear
// scan on rows of at most 16 positions and a binary search clamped into
// the row on longer ones.
func refSample(cum []float64, a, b int64, u float64) int64 {
	if b-a <= 16 {
		i := a
		for i < b-1 && cum[i] <= u {
			i++
		}
		return i
	}
	lo, hi := a, b
	for lo < hi {
		m := (lo + hi) >> 1
		if cum[m] > u {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == b {
		lo = b - 1
	}
	return lo
}

// TestGuideSampleMatchesReference pins the guide-table search to
// refSample on crafted rows — uniform, skewed by 1e-12 entries, and short
// of 1 so the clamp fires — at every boundary draw: 0, each cum value and
// bucket edge k/d with their float neighbours, 1-2⁻⁵³, and random draws.
// It pins pick, the walk's per-step choice, the same way on raw 64-bit
// draws x against refSample at unit(x): x on the 53-bit grid points at
// and next to each cum value and bucket edge, with the 11 low bits the
// float conversion drops clear, all set and random, plus random x. Each
// row's classification is asserted too: only the uniform rows of
// power-of-two degree take pick's shift path.
func TestGuideSampleMatchesReference(t *testing.T) {
	type row struct {
		name    string
		probs   []float64
		clamp   bool // the row's last cum rounds below 1
		uniform bool // uniform over a power-of-two degree: the shift path
	}
	var rows []row
	for _, d := range []int{1, 2, 3, 16, 17, 64, 2048} {
		uniform := make([]float64, d)
		for i := range uniform {
			uniform[i] = 1 / float64(d)
		}
		rows = append(rows, row{name: fmt.Sprintf("uniform/%d", d), probs: uniform, uniform: d&(d-1) == 0})
		if d == 1 {
			continue
		}
		// Every fourth entry shares the mass; the rest are 1e-12, so runs
		// of near-equal cum values straddle the bucket edges.
		skewed := make([]float64, d)
		heavy := (d + 3) / 4
		for i := range skewed {
			skewed[i] = 1e-12
		}
		for i := 0; i < d; i += 4 {
			skewed[i] = (1 - float64(d-heavy)*1e-12) / float64(heavy)
		}
		rows = append(rows, row{name: fmt.Sprintf("skewed/%d", d), probs: skewed})
		short := slices.Clone(uniform)
		short[d-1] -= 5e-10
		rows = append(rows, row{name: fmt.Sprintf("short/%d", d), probs: short, clamp: true})
	}
	tenths := make([]float64, 10) // 0.1 ten times sums to 1-2⁻⁵³
	for i := range tenths {
		tenths[i] = 0.1
	}
	rows = append(rows, row{name: "tenths", probs: tenths, clamp: true})
	// A first cum of exactly k/d where the float just below it still
	// lands in bucket k (int(u·d) rounds up): without the guide margin,
	// bucket k would start past that draw's answer.
	for _, kd := range [][2]int{{9, 10}, {3, 13}} {
		k, d := kd[0], kd[1]
		edge := make([]float64, d)
		edge[0] = float64(k) / float64(d)
		for i := 1; i < d; i++ {
			edge[i] = (1 - edge[0]) / float64(d-1)
		}
		rows = append(rows, row{name: fmt.Sprintf("edge/%d/%d", k, d), probs: edge})
	}

	rng := rand.New(rand.NewSource(1))
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// State 0 is a one-successor row, so the crafted row of state 1
			// starts at CSR position a = 1, not 0.
			d := int64(len(r.probs))
			c := &chain{
				off:  []int64{0, 1, 1 + d},
				succ: make([]int32, 1+d),
				prob: append([]float64{1}, r.probs...),
			}
			// No state is a target, so both kind bytes are rowKinds.
			e, err := New(c, []bool{false, false})
			if err != nil {
				t.Fatal(err)
			}
			a, b := int64(1), 1+d
			if r.clamp && e.cum[b-1] >= 1 {
				t.Fatalf("last cum = %v, want below 1 so the clamp fires", e.cum[b-1])
			}
			if e.kind[0] != 63 {
				t.Fatalf("one-successor row has kind %d, want 63", e.kind[0])
			}
			want := uint8(kindGeneral)
			if r.uniform {
				want = uint8(63 - bits.TrailingZeros64(uint64(d)))
			}
			if e.kind[1] != want {
				t.Fatalf("row has kind %d, want %d", e.kind[1], want)
			}
			draws := []float64{0, 1 - 0x1p-53}
			near := func(v float64) {
				draws = append(draws, v, math.Nextafter(v, 0), math.Nextafter(v, 1))
			}
			for i := a; i < b; i++ {
				near(e.cum[i])
			}
			for k := int64(0); k < d; k++ {
				near(float64(k) / float64(d))
			}
			for i := 0; i < 100_000; i++ {
				draws = append(draws, rng.Float64())
			}
			for _, u := range draws {
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := sample(e.cum, e.guide, a, b, u), refSample(e.cum, a, b, u); got != want {
					t.Fatalf("u=%v: guide search gives position %d, reference %d", u, got, want)
				}
			}

			xs := []uint64{0, ^uint64(0)}
			nearX := func(v float64) {
				m := uint64(v * (1 << 53)) // v's 53-bit grid point, rounded down
				for _, g := range []uint64{m - 1, m, m + 1} {
					if g >= 1<<53 {
						continue // m-1 wrapped below 0, or m+1 reached 1
					}
					xs = append(xs, g<<11, g<<11|0x7ff, g<<11|rng.Uint64()>>53)
				}
			}
			for i := a; i < b; i++ {
				nearX(e.cum[i])
			}
			for k := int64(0); k < d; k++ {
				nearX(float64(k) / float64(d))
			}
			for i := 0; i < 100_000; i++ {
				xs = append(xs, rng.Uint64())
			}
			for _, x := range xs {
				if got, want := pick(e.cum, e.guide, a, b, e.kind[1], x), refSample(e.cum, a, b, unit(x)); got != want {
					t.Fatalf("x=%#x: pick gives position %d, reference %d", x, got, want)
				}
			}
		})
	}
}

// TestLongRowSampling walks a 40-successor row and checks every walker
// takes its one step to a target.
func TestLongRowSampling(t *testing.T) {
	const fanout = 40
	rows := make([][]tr, fanout+1)
	row := make([]tr, fanout)
	for i := 0; i < fanout; i++ {
		row[i] = tr{to: int32(i + 1), p: 1.0 / fanout}
	}
	rows[0] = row
	target := make([]bool, fanout+1)
	for i := 1; i <= fanout; i++ {
		target[i] = true
	}
	c := buildChain(rows)
	e, err := New(c, target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunContext(t.Context(), Options{Trials: fanout * 1000, Seed: 9, From: intp(0), MaxSteps: budget(t, c, target)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != fanout*1000 || res.Summary.Max != 1 {
		t.Fatalf("hits=%d max=%g, want all one-step hits", res.Hits, res.Summary.Max)
	}
}
