package markov

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// mustChain builds the space of a under pol and wraps it in a chain,
// returning the space's target vector and encoder alongside.
func mustChain(t *testing.T, a protocol.Algorithm, pol scheduler.Policy) (*Chain, []bool, *protocol.Encoder) {
	t.Helper()
	ts, err := statespace.Build(a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := FromSpace(ts)
	if err != nil {
		t.Fatal(err)
	}
	return chain, TargetFromSpace(ts), ts.Enc
}

// arc is one weighted transition of a hand-built test chain.
type arc struct {
	to int
	p  float64
}

// chainOf builds the chain whose state s has the outgoing row rows[s] (a
// nil row is absorbing). Each row is sorted by target and its duplicate
// targets are merged before the CSR goes to FromCSR.
func chainOf(tb testing.TB, rows [][]arc) *Chain {
	tb.Helper()
	off := make([]int64, len(rows)+1)
	var (
		succ []int32
		prob []float64
	)
	for s, r := range rows {
		slices.SortStableFunc(r, func(a, b arc) int { return cmp.Compare(a.to, b.to) })
		for i := 0; i < len(r); {
			to, p := r[i].to, r[i].p
			for i++; i < len(r) && r[i].to == to; i++ {
				p += r[i].p
			}
			succ = append(succ, int32(to))
			prob = append(prob, p)
		}
		off[s+1] = int64(len(succ))
	}
	c, err := FromCSR(off, succ, prob)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestFromCSRValidation checks that FromCSR wraps a well-formed CSR and
// rejects malformed offsets, targets and distributions.
func TestFromCSRValidation(t *testing.T) {
	c, err := FromCSR([]int64{0, 2, 3, 3}, []int32{1, 2, 2}, []float64{0.5, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if succ := c.rowSucc(0); c.n != 3 || len(succ) != 2 || succ[1] != 2 || c.prob.At(1) != 0.5 {
		t.Fatalf("chain rows not aliased: n=%d %v %v", c.n, succ, c.prob.At(1))
	}
	for _, tc := range []struct {
		name string
		off  []int64
		succ []int32
		prob []float64
	}{
		{"no offsets", nil, nil, nil},
		{"offsets not from 0", []int64{1, 2, 3, 3}, []int32{1, 2, 2}, []float64{0.5, 0.5, 1}},
		{"offsets past the arrays", []int64{0, 2, 3, 4}, []int32{1, 2, 2}, []float64{0.5, 0.5, 1}},
		{"offsets short of the arrays", []int64{0, 2, 2, 2}, []int32{1, 2, 2}, []float64{0.5, 0.5, 1}},
		{"probabilities misaligned", []int64{0, 2, 3, 3}, []int32{1, 2, 2}, []float64{0.5, 0.5}},
		{"non-monotone rows", []int64{0, 3, 2, 3}, []int32{1, 2, 2}, []float64{0.5, 0.5, 1}},
		{"target out of range", []int64{0, 1, 1, 1}, []int32{3}, []float64{1}},
		{"negative target", []int64{0, 1, 1, 1}, []int32{-1}, []float64{1}},
		{"duplicate target", []int64{0, 2, 2, 2}, []int32{1, 1}, []float64{0.5, 0.5}},
		{"descending targets", []int64{0, 2, 2, 2}, []int32{2, 1}, []float64{0.5, 0.5}},
		{"negative probability", []int64{0, 2, 2, 2}, []int32{1, 2}, []float64{-0.5, 1.5}},
		{"zero probability", []int64{0, 2, 2, 2}, []int32{1, 2}, []float64{0, 1}},
		{"NaN probability", []int64{0, 2, 2, 2}, []int32{1, 2}, []float64{math.NaN(), 1}},
		{"row sums below 1", []int64{0, 1, 1, 1}, []int32{1}, []float64{0.7}},
		{"row sums above 1", []int64{0, 2, 2, 2}, []int32{1, 2}, []float64{0.5, 0.6}},
	} {
		if _, err := FromCSR(tc.off, tc.succ, tc.prob); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestGeometricHittingTime(t *testing.T) {
	// State 0 flips a fair coin to reach absorbing state 1: E = 2.
	c := chainOf(t, [][]arc{{{0, 0.5}, {1, 0.5}}, nil})
	h, err := c.HittingTimes([]bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[0]-2) > 1e-9 || h[1] != 0 {
		t.Fatalf("h = %v, want [2 0]", h)
	}
}

func TestGamblersRuin(t *testing.T) {
	// Symmetric walk on 0..4 absorbing at both ends: h(i) = i*(4-i).
	rows := make([][]arc, 5)
	for i := 1; i <= 3; i++ {
		rows[i] = []arc{{i - 1, 0.5}, {i + 1, 0.5}}
	}
	c := chainOf(t, rows)
	target := []bool{true, false, false, false, true}
	h, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 4; i++ {
		want := float64(i * (4 - i))
		if math.Abs(h[i]-want) > 1e-9 {
			t.Fatalf("h(%d) = %g, want %g", i, h[i], want)
		}
	}
}

func TestReachesWithProbOne(t *testing.T) {
	// 0 -> 1 (target) w.p. 1/2, 0 -> 2 (absorbing trap) w.p. 1/2.
	c := chainOf(t, [][]arc{{{1, 0.5}, {2, 0.5}}, nil, nil})
	target := []bool{false, true, false}
	got := c.ReachesWithProbOne(target)
	if got[0] {
		t.Fatal("state 0 can fall into the trap; prob-1 must be false")
	}
	if !got[1] {
		t.Fatal("target state must trivially reach itself")
	}
	if got[2] {
		t.Fatal("trap state cannot reach target")
	}
	if dist := c.distances(target); dist[0] < 0 || dist[1] < 0 || dist[2] >= 0 {
		t.Fatalf("distances = %v, want the target reachable from 0 and 1 only", dist)
	}
	h, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(h[0], 1) || !math.IsInf(h[2], 1) {
		t.Fatalf("divergent states must have infinite hitting time: %v", h)
	}
}

func TestHittingTimesThroughTransientLoop(t *testing.T) {
	// 0 -> 1 -> 0 with escape 1 -> 2 (target): h(1) = 1 + 0.5*h(0),
	// h(0) = 1 + h(1) => h(1) = 3, h(0) = 4.
	c := chainOf(t, [][]arc{{{1, 1}}, {{0, 0.5}, {2, 0.5}}, nil})
	h, err := c.HittingTimes([]bool{false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h[0]-4) > 1e-9 || math.Abs(h[1]-3) > 1e-9 {
		t.Fatalf("h = %v, want [4 3 0]", h)
	}
}

func TestGaussSeidelLargeChain(t *testing.T) {
	// 1700 states exceed the dense limit; countdown with fair self-loops
	// has the exact solution h(i) = 2i.
	const n = 1700
	c := countdownChain(t, n)
	target := make([]bool, n)
	target[0] = true
	h, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 10, 999, n - 1} {
		want := 2 * float64(i)
		if math.Abs(h[i]-want) > 1e-6*want {
			t.Fatalf("h(%d) = %g, want %g", i, h[i], want)
		}
	}
}

// countdownChain is the n-state countdown with fair self-loops: state i > 0
// moves to i-1 or stays, each with probability 1/2, so h(i) = 2i to
// state 0.
func countdownChain(tb testing.TB, n int) *Chain {
	tb.Helper()
	rows := make([][]arc, n)
	for i := 1; i < n; i++ {
		rows[i] = []arc{{i - 1, 0.5}, {i, 0.5}}
	}
	return chainOf(tb, rows)
}

func mustSyncpair(t *testing.T) *syncpair.Algorithm {
	t.Helper()
	a, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFromAlgorithmSyncpairCentralNeverConverges(t *testing.T) {
	// Under the central randomized scheduler Algorithm 3 cannot reach
	// (T,T) at all: hitting probability 0, not just < 1.
	a := mustSyncpair(t)
	chain, target, enc := mustChain(t, a, scheduler.CentralPolicy)
	ff := int(enc.Encode(protocol.Configuration{syncpair.False, syncpair.False}))
	if chain.distances(target)[ff] >= 0 {
		t.Fatal("central scheduler should never reach (T,T) from (F,F)")
	}
	one := chain.ReachesWithProbOne(target)
	if one[ff] {
		t.Fatal("prob-1 reachability must fail under the central scheduler")
	}
}

func TestFromAlgorithmSyncpairDistributedExactTimes(t *testing.T) {
	// Under the distributed randomized scheduler: h(F,F) = 5, h(T,F) = 6.
	a := mustSyncpair(t)
	chain, target, enc := mustChain(t, a, scheduler.DistributedPolicy)
	h, err := chain.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	ff := int(enc.Encode(protocol.Configuration{syncpair.False, syncpair.False}))
	tf := int(enc.Encode(protocol.Configuration{syncpair.True, syncpair.False}))
	if math.Abs(h[ff]-5) > 1e-9 {
		t.Fatalf("h(F,F) = %g, want 5", h[ff])
	}
	if math.Abs(h[tf]-6) > 1e-9 {
		t.Fatalf("h(T,F) = %g, want 6", h[tf])
	}
}

func TestFromAlgorithmSyncpairSynchronous(t *testing.T) {
	// The synchronous scheduler converges deterministically: h(F,F) = 1,
	// h(T,F) = 2.
	a := mustSyncpair(t)
	chain, target, enc := mustChain(t, a, scheduler.SynchronousPolicy)
	h, err := chain.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	ff := int(enc.Encode(protocol.Configuration{syncpair.False, syncpair.False}))
	tf := int(enc.Encode(protocol.Configuration{syncpair.True, syncpair.False}))
	if math.Abs(h[ff]-1) > 1e-9 || math.Abs(h[tf]-2) > 1e-9 {
		t.Fatalf("h(F,F)=%g h(T,F)=%g, want 1, 2", h[ff], h[tf])
	}
}

func TestHermanExactExpectedTime(t *testing.T) {
	// Herman N=3 from the all-equal configuration: every step all three
	// processes toss, the next configuration is uniform over 8, and the
	// run stays at 3 tokens with probability 1/4: E = 4/3.
	a, err := herman.New(3)
	if err != nil {
		t.Fatal(err)
	}
	chain, target, enc := mustChain(t, a, scheduler.SynchronousPolicy)
	h, err := chain.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	zero := int(enc.Encode(protocol.Configuration{0, 0, 0}))
	if math.Abs(h[zero]-4.0/3.0) > 1e-9 {
		t.Fatalf("h(000) = %g, want 4/3", h[zero])
	}
	// Single-token configurations are legitimate (hitting time 0).
	one := int(enc.Encode(protocol.Configuration{0, 0, 1}))
	if h[one] != 0 {
		t.Fatalf("h(001) = %g, want 0 (legitimate)", h[one])
	}
}

func TestTargetFromSpaceAndSummarize(t *testing.T) {
	a := mustSyncpair(t)
	ts, err := statespace.Build(a, scheduler.DistributedPolicy, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := FromSpace(ts)
	if err != nil {
		t.Fatal(err)
	}
	target := TargetFromSpace(ts)
	count := 0
	for _, b := range target {
		if b {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("syncpair has %d legitimate configurations, want 1", count)
	}
	h, err := chain.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(h, target)
	if s.States != 4 || s.Target != 1 || s.Divergent != 0 {
		t.Fatalf("summary = %+v", s)
	}
	// Mean of {5, 6, 6} and max 6.
	if math.Abs(s.Mean-17.0/3.0) > 1e-9 || math.Abs(s.Max-6) > 1e-9 {
		t.Fatalf("summary = %+v, want mean 17/3 max 6", s)
	}
}

func TestHittingTimesBadTargetLength(t *testing.T) {
	c := chainOf(t, make([][]arc, 2))
	if _, err := c.HittingTimes([]bool{true}); err == nil {
		t.Fatal("mismatched target length accepted")
	}
}
