package checker

// Property tests for the incremental k-fault machinery: the closed-form
// seed enumeration is bit-equal to the legitimacy scan, every incremental
// k→k+1 sweep is bit-equal to the from-scratch ball pipeline at every k
// (globals, distances, and the sealed subspace's arrays), across worker
// counts and policies — and the sweep's exploration accounting is exact:
// zero full-range passes on enumerator algorithms, one incremental
// exploration total, zero callbacks on a warm cache.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"weak"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// scanOnly hides every optional interface of the wrapped algorithm —
// LegitEnumerator above all — so the ball enumeration is forced onto the
// legitimacy-scan path.
type scanOnly struct{ protocol.Algorithm }

// countingEnumAlg forwards the closed-form enumeration while counting the
// callbacks exploration makes into the algorithm.
type countingEnumAlg struct {
	protocol.LegitEnumerator
	legit   atomic.Int64
	enabled atomic.Int64
}

func (c *countingEnumAlg) Legitimate(cfg protocol.Configuration) bool {
	c.legit.Add(1)
	return c.LegitEnumerator.Legitimate(cfg)
}

func (c *countingEnumAlg) EnabledAction(cfg protocol.Configuration, p int) int {
	c.enabled.Add(1)
	return c.LegitEnumerator.EnabledAction(cfg, p)
}

func enumeratorAlgorithms(t *testing.T) []protocol.LegitEnumerator {
	t.Helper()
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ablation, err := tokenring.NewWithModulus(4, 2) // m | n: L is empty
	if err != nil {
		t.Fatal(err)
	}
	dk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := herman.New(5)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	col, err := coloring.New(cg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := graph.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	colStar, err := coloring.New(cs)
	if err != nil {
		t.Fatal(err)
	}
	return []protocol.LegitEnumerator{ring, ablation, dk, hr, col, colStar}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subSpacesEqual compares every persisted array of two subspaces —
// bit-equality of the canonical form.
func subSpacesEqual(t *testing.T, a, b *statespace.Space) bool {
	t.Helper()
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	aOff, aSucc, aProb := a.CSR()
	bOff, bSucc, bProb := b.CSR()
	if a.NumStates() != b.NumStates() || !int64sEqual(a.Globals(), b.Globals()) || !int64sEqual(aOff, bOff) ||
		!slices.Equal(aProb.Palette(), bProb.Palette()) {
		return false
	}
	for i := range aSucc {
		if aSucc[i] != bSucc[i] || aProb.At(int64(i)) != bProb.At(int64(i)) {
			return false
		}
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.Legit[s] != b.Legit[s] {
			return false
		}
	}
	return true
}

// TestFaultBallEnumeratorMatchesScan pins FaultBallContext's three seedings
// bit-equal — the closed-form enumeration, the legitimacy scan, and the
// legitimate states of the ball's own closure (the warm-cache path,
// closureBallGrower) — for every enumerator algorithm, with and without
// its enumerator, and every radius: the paths must be indistinguishable
// downstream.
func TestFaultBallEnumeratorMatchesScan(t *testing.T) {
	pol := scheduler.CentralPolicy
	for _, a := range enumeratorAlgorithms(t) {
		for k := 0; k <= 2; k++ {
			gEnum, dEnum, err := FaultBallContext(t.Context(), a, k, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			gScan, dScan, err := FaultBallContext(t.Context(), scanOnly{a}, k, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !int64sEqual(gEnum, gScan) || !intsEqual(dEnum, dScan) {
				t.Fatalf("%s k=%d: enumerator-seeded ball (%d states) differs from scan-seeded (%d states)",
					a.Name(), k, len(gEnum), len(gScan))
			}
			for _, src := range []protocol.Algorithm{a, scanOnly{a}} {
				ss, _, _, err := BallClosureContext(t.Context(), nil, src, pol, k, statespace.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if ss == nil { // empty L: no closure, nothing to derive from
					if len(gEnum) != 0 {
						t.Fatalf("%s k=%d: nil closure of a %d-state ball", src.Name(), k, len(gEnum))
					}
					continue
				}
				b := closureBallGrower(ss, 0)
				if err := b.growTo(t.Context(), k); err != nil {
					t.Fatal(err)
				}
				gDer, dDer := b.sorted()
				if !int64sEqual(gEnum, gDer) || !intsEqual(dEnum, dDer) {
					t.Fatalf("%s k=%d: closure-derived ball (%d states) differs from enumerated (%d states)",
						src.Name(), k, len(gDer), len(gEnum))
				}
			}
		}
	}
}

// TestBallSweepIncrementalParity pins the tentpole bit-equality: growing one
// BallSweep through k = 0..K and sealing at every radius yields, at each k,
// exactly the globals, distances and subspace arrays of a from-scratch
// FaultBallContext + BallClosureContext at that k — for every policy and
// across worker counts.
func TestBallSweepIncrementalParity(t *testing.T) {
	const kmax = 2
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := dijkstra.New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []protocol.Algorithm{ring, dk} {
		for _, pol := range []scheduler.Policy{
			scheduler.CentralPolicy, scheduler.DistributedPolicy, scheduler.SynchronousPolicy,
		} {
			for _, workers := range []int{1, 3, 8} {
				opt := statespace.Options{Workers: workers}
				sweep, err := NewBallSweepContext(t.Context(), a, pol, opt)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k <= kmax; k++ {
					if err := sweep.GrowToContext(t.Context(), k); err != nil {
						t.Fatal(err)
					}
					ss, globals, dist, err := sweep.SealContext(t.Context())
					if err != nil {
						t.Fatal(err)
					}
					refSS, refG, refD, err := BallClosureContext(t.Context(), nil, a, pol, k, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !int64sEqual(globals, refG) || !intsEqual(dist, refD) {
						t.Fatalf("%s/%s workers=%d k=%d: incremental ball differs from from-scratch",
							a.Name(), pol.Name(), workers, k)
					}
					if !subSpacesEqual(t, ss, refSS) {
						t.Fatalf("%s/%s workers=%d k=%d: incremental closure subspace differs from from-scratch",
							a.Name(), pol.Name(), workers, k)
					}
				}
			}
		}
	}
}

// TestSweepKFaultsMatchesFromScratch pins the sweep driver's verdicts —
// including counterexamples — bit-identical to the from-scratch ball
// pipeline (BallClosureContext + BallVerdictsOver), and its exploration
// accounting exact: on an enumerator algorithm the whole walk makes zero
// full-range passes and exactly one incremental exploration (one
// Legitimate call and n EnabledAction calls per closure state, total — the
// acceptance pin for `stabcheck -kmax`).
func TestSweepKFaultsMatchesFromScratch(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	opt := statespace.Options{}
	const kmax = 2
	n := int64(inner.Graph().N())

	counted := &countingEnumAlg{LegitEnumerator: inner}
	res, err := SweepKFaultsContext(t.Context(), nil, counted, pol, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != kmax+1 {
		t.Fatalf("sweep walked %d radii, want %d", len(res.Verdicts), kmax+1)
	}
	states := int64(res.Sub.NumStates())
	enc, err := protocol.NewEncoder(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.legit.Load(); got != states {
		t.Errorf("sweep made %d Legitimate calls, want exactly %d (one per closure state, no full-range pass over %d configs)",
			got, states, enc.Total())
	}
	if got := counted.enabled.Load(); got != n*states {
		t.Errorf("sweep made %d EnabledAction calls, want exactly %d (one incremental exploration)", got, n*states)
	}

	refSS, refG, refD, err := BallClosureContext(t.Context(), nil, inner, pol, kmax, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := BallVerdictsOver(refSS, BallLocalDistances(refSS, refG, refD), kmax)
	for k, v := range res.Verdicts {
		r := ref[k]
		if v.K != r.K || v.Configs != r.Configs || v.Possible != r.Possible || v.Certain != r.Certain ||
			!v.Counterexample.Equal(r.Counterexample) {
			t.Errorf("k=%d: sweep verdict %+v differs from from-scratch %+v", k, v, r)
		}
	}

	// Early stop: the token ring breaks certain convergence at k=1, so a
	// stop-at-break sweep must end there without exploring radius 2.
	stopped, err := SweepKFaultsContext(t.Context(), nil, inner, pol, kmax, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.BreaksCertainAt != 1 || len(stopped.Verdicts) != 2 {
		t.Fatalf("stop-at-break sweep: BreaksCertainAt=%d, %d verdicts; want 1 and 2",
			stopped.BreaksCertainAt, len(stopped.Verdicts))
	}
	if stopped.Sub.NumStates() >= res.Sub.NumStates() {
		t.Fatalf("early-stopped sweep explored %d states, full sweep %d — early stop saved nothing",
			stopped.Sub.NumStates(), res.Sub.NumStates())
	}
}

// TestSweepKFaultsScanAccounting is the scan-path analogue: a non-
// enumerator algorithm pays exactly one full-range legitimacy scan for the
// whole sweep (the seed pass) plus one Legitimate call per closure state —
// never one scan per radius.
func TestSweepKFaultsScanAccounting(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	counted := &countingAlg{Algorithm: scanOnly{inner}}
	const kmax = 2
	res, err := SweepKFaultsContext(t.Context(), nil, counted, pol, kmax, statespace.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := protocol.NewEncoder(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := enc.Total() + int64(res.Sub.NumStates())
	if got := counted.legit.Load(); got != want {
		t.Errorf("scan-path sweep made %d Legitimate calls, want exactly %d (ONE range scan + one per closure state)", got, want)
	}
}

// TestSweepKFaultsWarmCache pins the end-to-end cache contract of the
// sweep: a warm run loads every radius — zero algorithm callbacks of any
// kind — and reproduces the cold verdicts bit-identically.
func TestSweepKFaultsWarmCache(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	opt := statespace.Options{}
	const kmax = 2
	cache, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SweepKFaultsContext(t.Context(), cache, inner, pol, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingEnumAlg{LegitEnumerator: inner}
	warm, err := SweepKFaultsContext(t.Context(), cache, counted, pol, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.legit.Load() + counted.enabled.Load(); got != 0 {
		t.Errorf("warm sweep made %d algorithm callbacks, want 0", got)
	}
	for k, hit := range warm.CacheHits {
		if !hit {
			t.Errorf("warm sweep missed the cache at k=%d", k)
		}
	}
	for k := range cold.Verdicts {
		c, w := cold.Verdicts[k], warm.Verdicts[k]
		if c.K != w.K || c.Configs != w.Configs || c.Possible != w.Possible || c.Certain != w.Certain ||
			!c.Counterexample.Equal(w.Counterexample) {
			t.Errorf("k=%d: warm verdict %+v differs from cold %+v", k, w, c)
		}
	}
	if !int64sEqual(cold.Globals, warm.Globals) || !intsEqual(cold.Dist, warm.Dist) {
		t.Error("warm sweep ball differs from cold")
	}
	if !subSpacesEqual(t, cold.Sub, warm.Sub) {
		t.Error("warm sweep closure subspace differs from cold")
	}

	// Prefix-warm resume: a cache holding only radii 0..kmax serves a
	// kmax+1 sweep warm up to kmax and explores just the last shell — no
	// seed pass, and one Legitimate call per newly explored closure state —
	// and the last radius equals the cache-less from-scratch pipeline bit
	// for bit. dijkstra(5,5) runs it because its closures grow at every
	// radius (85, 1125, 2885, 3125 states at k=0..3), so the last shell
	// really has states to explore.
	dk, err := dijkstra.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	dcache, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := SweepKFaultsContext(t.Context(), dcache, dk, pol, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	prefix.Sub.Close()
	counted2 := &countingEnumAlg{LegitEnumerator: dk}
	extended, err := SweepKFaultsContext(t.Context(), dcache, counted2, pol, kmax+1, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	defer extended.Sub.Close()
	newStates := int64(extended.ClosureStates[kmax+1] - extended.ClosureStates[kmax])
	if newStates <= 0 {
		t.Fatalf("the k=%d shell adds %d closure states: the prefix-warm check would be vacuous", kmax+1, newStates)
	}
	if got := counted2.legit.Load(); got != newStates {
		t.Errorf("prefix-warm sweep made %d Legitimate calls, want %d (the missing shell's closure states only)", got, newStates)
	}
	refSS, refG, refD, err := BallClosureContext(t.Context(), nil, dk, pol, kmax+1, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := BallVerdictsOver(refSS, BallLocalDistances(refSS, refG, refD), kmax+1)
	for k, v := range extended.Verdicts {
		r := ref[k]
		if v.Configs != r.Configs || v.Possible != r.Possible || v.Certain != r.Certain {
			t.Errorf("extended sweep k=%d: verdict %+v differs from from-scratch %+v", k, v, r)
		}
	}
	if !int64sEqual(extended.Globals, refG) || !intsEqual(extended.Dist, refD) {
		t.Error("prefix-warm sweep ball differs from from-scratch")
	}
	if !subSpacesEqual(t, extended.Sub, refSS) {
		t.Error("prefix-warm sweep closure subspace differs from from-scratch")
	}
	for k := 0; k <= kmax; k++ {
		if !extended.CacheHits[k] {
			t.Errorf("extended sweep should have been warm at k=%d", k)
		}
	}
	if extended.CacheHits[kmax+1] {
		t.Errorf("extended sweep cannot be warm at the never-cached k=%d", kmax+1)
	}
}

// TestSweepKFaultsCacheKeyedByPolicy pins the policy in the closure key:
// a distributed sweep over a cache filled by a central one must miss at
// every radius and equal a cache-less distributed sweep — verdicts,
// closure sizes, ball and subspace arrays. Every entry the central sweep
// wrote must also be an ordinary serialized closure that statespace.Map
// accepts.
func TestSweepKFaultsCacheKeyedByPolicy(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 2
	opt := statespace.Options{}
	cache, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	central, err := SweepKFaultsContext(t.Context(), cache, inner, scheduler.CentralPolicy, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cache.Dir(), "*.ball"))
	if err != nil || len(entries) != kmax+1 {
		t.Fatalf("cold central sweep wrote %d .ball entries (%v), want %d", len(entries), err, kmax+1)
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := statespace.Map(data, inner, scheduler.CentralPolicy, 0, 0, false, nil)
		if err != nil {
			t.Fatalf("%s: statespace.Map rejected a ball entry: %v", filepath.Base(path), err)
		}
		if ss.Globals() == nil || !slices.Contains(central.ClosureStates, ss.NumStates()) {
			t.Errorf("%s: a %d-state entry is not one of the sweep's closures %v",
				filepath.Base(path), ss.NumStates(), central.ClosureStates)
		}
	}

	dist := scheduler.DistributedPolicy
	warm, err := SweepKFaultsContext(t.Context(), cache, inner, dist, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SweepKFaultsContext(t.Context(), nil, inner, dist, kmax, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for k, hit := range warm.CacheHits {
		if hit {
			t.Errorf("distributed sweep hit the central cache at k=%d", k)
		}
	}
	if len(warm.Verdicts) != len(ref.Verdicts) || !slices.Equal(warm.ClosureStates, ref.ClosureStates) {
		t.Fatalf("distributed sweep over the central cache walked %v closures, want %v",
			warm.ClosureStates, ref.ClosureStates)
	}
	for k, r := range ref.Verdicts {
		w := warm.Verdicts[k]
		if w.K != r.K || w.Configs != r.Configs || w.Possible != r.Possible || w.Certain != r.Certain ||
			!w.Counterexample.Equal(r.Counterexample) {
			t.Errorf("k=%d: verdict %+v over the central cache differs from cache-less %+v", k, w, r)
		}
	}
	if !int64sEqual(warm.Globals, ref.Globals) || !intsEqual(warm.Dist, ref.Dist) {
		t.Error("distributed ball over the central cache differs from cache-less")
	}
	if !subSpacesEqual(t, warm.Sub, ref.Sub) {
		t.Error("distributed closure over the central cache differs from cache-less")
	}
}

// TestSweepKFaultsErrorReleasesMapping pins that a sweep failing after a
// warm radius releases that radius's zero-copy subspace mapping instead of
// leaving it to the finalizer: a cache warm for radii 0–1 serves both from
// mapped files, and a MaxStates between the radius-1 and radius-2 closure
// sizes (704 and 2,648 states for tokenring(6)) fails the extension to
// radius 2 after the radius-1 mapping was adopted.
func TestSweepKFaultsErrorReleasesMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the process mappings from /proc/self/maps")
	}
	ring, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	cache, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mapped := func() bool {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(maps), cache.Dir())
	}
	if _, err := SweepKFaultsContext(t.Context(), cache, ring, pol, 1, statespace.Options{}, false); err != nil {
		t.Fatal(err)
	}
	opt := statespace.Options{MaxStates: 1000}
	warm, err := SweepKFaultsContext(t.Context(), cache, ring, pol, 1, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHits[1] || !mapped() {
		t.Fatal("the warm radius-1 closure was not served from a file mapping")
	}
	warm.Sub.Close()
	if mapped() {
		t.Fatal("closing the warm sweep's subspace left a cache file mapped")
	}
	if _, err := SweepKFaultsContext(t.Context(), cache, ring, pol, 2, opt, false); err == nil {
		t.Fatal("radius 2 of tokenring(6) fit a 1000-state cap")
	}
	if mapped() {
		t.Error("the failed sweep left its warm radius-1 subspace mapped")
	}
}

// countingBallAlg forwards the closed-form enumeration while counting
// every exploration callback — Legitimate, guards and enumeration alike —
// so a warm run's "zero callbacks" claim is exact.
type countingBallAlg struct {
	protocol.LegitEnumerator
	calls atomic.Int64
}

func (c *countingBallAlg) Legitimate(cfg protocol.Configuration) bool {
	c.calls.Add(1)
	return c.LegitEnumerator.Legitimate(cfg)
}

func (c *countingBallAlg) EnabledAction(cfg protocol.Configuration, p int) int {
	c.calls.Add(1)
	return c.LegitEnumerator.EnabledAction(cfg, p)
}

func (c *countingBallAlg) EnumerateLegitimate(yield func(protocol.Configuration) bool) {
	c.calls.Add(1)
	c.LegitEnumerator.EnumerateLegitimate(yield)
}

// TestBallWarmPipelineZeroCallbacks pins the warm single-k pipeline: with
// ball and closure both cached, BallClosureContext (the
// `stabcheck -reachable -kfaults` path) performs zero legitimacy scans and
// zero exploration callbacks.
func TestBallWarmPipelineZeroCallbacks(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	opt := statespace.Options{}
	c, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const k = 1
	coldSS, coldG, coldD, err := BallClosureContext(t.Context(), c, inner, pol, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingBallAlg{LegitEnumerator: inner}
	warmSS, warmG, warmD, err := BallClosureContext(t.Context(), c, counted, pol, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := counted.calls.Load(); got != 0 {
		t.Fatalf("warm ball pipeline made %d algorithm callbacks, want 0", got)
	}
	if warmSS.NumStates() != coldSS.NumStates() || len(warmG) != len(coldG) || len(warmD) != len(coldD) {
		t.Fatal("warm ball pipeline result differs from cold")
	}
}

// TestSweepKFaultsEmptyLegitimateSet pins the vacuous path: an empty L
// (the Lemma-4 ablation modulus) sweeps to vacuous verdicts at every
// radius with a nil subspace.
func TestSweepKFaultsEmptyLegitimateSet(t *testing.T) {
	ablation, err := tokenring.NewWithModulus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepKFaultsContext(t.Context(), nil, ablation, scheduler.CentralPolicy, 2, statespace.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sub != nil || res.BreaksCertainAt != -1 {
		t.Fatalf("empty-L sweep: Sub=%v BreaksCertainAt=%d, want nil and -1", res.Sub, res.BreaksCertainAt)
	}
	for k, v := range res.Verdicts {
		if v.Configs != 0 || !v.Possible || !v.Certain {
			t.Errorf("k=%d: vacuous verdict %+v, want 0 configs and trivially converged", k, v)
		}
	}
}

// TestSweepKFaultsReleasesBallSweep pins what the walk holds at each
// verdict: after a garbage collection, radius k-1's closure is gone at
// radius k, and at the last radius the ball grower's Dedup table and the
// closure builder are gone too (TestFinishMatchesSeal pins that Finish
// itself drops the builder's table), while the returned closure lives on. A
// prefix-warm walk never has two cache files mapped. Every walk, with and
// without stopAtBreak, equals the from-scratch pipeline at every radius.
func TestSweepKFaultsReleasesBallSweep(t *testing.T) {
	t.Cleanup(func() { afterVerdict = nil })
	dk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := tokenring.New(5) // breaks certain convergence at k=1
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	opt := statespace.Options{}
	const kmax = 2
	for _, a := range []protocol.Algorithm{dk, ring} {
		checkFinishConsumes(t, a, pol, kmax, opt)
		for _, warm := range []bool{false, true} {
			var cache *spacecache.Cache
			if warm {
				if cache, err = spacecache.Open(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				// Radii 0 and 1 are cached: the walks below resume cold
				// at radius 2 from the loaded radius-1 closure.
				prefix, err := SweepKFaultsContext(t.Context(), cache, a, pol, 1, opt, false)
				if err != nil {
					t.Fatal(err)
				}
				prefix.Sub.Close()
			}
			for _, stop := range []bool{false, true} {
				for km := 0; km <= kmax; km++ {
					checkSweepReleases(t, cache, a, pol, km, opt, stop)
				}
			}
		}
	}
}

// checkFinishConsumes pins the last radius's seal: the consuming seal
// returns what SealContext returns on an identically grown sweep, and
// leaves the sweep without its ball grower and with a finished builder.
func checkFinishConsumes(t *testing.T, a protocol.Algorithm, pol scheduler.Policy, k int, opt statespace.Options) {
	t.Helper()
	grown := func() *BallSweep {
		sw, err := NewBallSweepContext(t.Context(), a, pol, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := sw.SealContext(t.Context()); err != nil { // a builder to resume
			t.Fatal(err)
		}
		if err := sw.GrowToContext(t.Context(), k); err != nil {
			t.Fatal(err)
		}
		return sw
	}
	wantSS, wantG, wantD, err := grown().SealContext(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	sw := grown()
	gotSS, gotG, gotD, err := sw.seal(t.Context(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !subSpacesEqual(t, wantSS, gotSS) || !int64sEqual(wantG, gotG) || !intsEqual(wantD, gotD) {
		t.Errorf("%s: the consuming seal differs from SealContext at k=%d", a.Name(), k)
	}
	if sw.ball != nil || sw.builder.Len() != 0 {
		t.Errorf("%s: the consuming seal kept the ball grower (%v) or an unfinished builder (%d states)", a.Name(), sw.ball != nil, sw.builder.Len())
	}
}

func checkSweepReleases(t *testing.T, cache *spacecache.Cache, a protocol.Algorithm, pol scheduler.Policy, kmax int, opt statespace.Options, stop bool) {
	t.Helper()
	name := fmt.Sprintf("%s kmax=%d stop=%v cache=%v", a.Name(), kmax, stop, cache != nil)
	var (
		ballTable weak.Pointer[statespace.Dedup]
		builder   weak.Pointer[statespace.Builder]
		prev      weak.Pointer[statespace.Space] // the latest verdict's closure
	)
	afterVerdict = func(k int, sweep *BallSweep, ss *statespace.Space) {
		runtime.GC()
		if k > 0 && prev.Value() != nil {
			t.Errorf("%s: radius %d's closure is still alive at radius %d's verdict", name, k-1, k)
		}
		if cache != nil && runtime.GOOS == "linux" {
			if n := mappedFiles(t, cache.Dir()); n > 1 {
				t.Errorf("%s: %d cache files mapped at radius %d's verdict, want at most 1", name, n, k)
			}
		}
		if k == kmax {
			if sweep != nil {
				t.Errorf("%s: the sweep survives its last radius", name)
			}
			if ballTable.Value() != nil || builder.Value() != nil {
				t.Errorf("%s: ball table freed %v, builder freed %v at the last verdict; want both freed",
					name, ballTable.Value() == nil, builder.Value() == nil)
			}
		} else {
			ballTable = weak.Make(sweep.ball.ball)
			builder = weak.Make(sweep.builder)
		}
		prev = weak.Make(ss)
	}
	res, err := SweepKFaultsContext(t.Context(), cache, a, pol, kmax, opt, stop)
	afterVerdict = nil
	if err != nil {
		t.Fatal(err)
	}
	defer res.Sub.Close()
	runtime.GC()
	if prev.Value() != res.Sub {
		t.Errorf("%s: the result does not hold the last radius's closure", name)
	}
	for k, v := range res.Verdicts {
		refSS, refG, refD, err := BallClosureContext(t.Context(), nil, a, pol, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		r := BallVerdictAt(refSS, BallLocalDistances(refSS, refG, refD), k)
		if v.K != r.K || v.Configs != r.Configs || v.Possible != r.Possible || v.Certain != r.Certain ||
			!v.Counterexample.Equal(r.Counterexample) {
			t.Errorf("%s: k=%d verdict %+v differs from from-scratch %+v", name, k, v, r)
		}
		if res.ClosureStates[k] != refSS.NumStates() {
			t.Errorf("%s: k=%d closure of %d states, from scratch %d", name, k, res.ClosureStates[k], refSS.NumStates())
		}
		if k == len(res.Verdicts)-1 && (!subSpacesEqual(t, res.Sub, refSS) || !int64sEqual(res.Globals, refG) || !intsEqual(res.Dist, refD)) {
			t.Errorf("%s: last radius k=%d closure or ball differs from from-scratch", name, k)
		}
	}
}

// mappedFiles counts the distinct files under dir mapped into the process.
func mappedFiles(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, line := range strings.Split(string(maps), "\n") {
		if i := strings.Index(line, dir); i >= 0 {
			files[line[i:]] = true
		}
	}
	return len(files)
}
