package core

import (
	"sync/atomic"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// countingAlg counts Legitimate evaluations — the one callback only
// exploration makes (analyses read the precomputed LegitSet; the
// fair-lasso search does re-query guards to recover activation subsets,
// but never legitimacy). A warm cached run must make zero. It embeds
// protocol.Deterministic so the wrapped instance keeps its deterministic
// fast paths and the lasso search, making the report comparable
// field-for-field with the unwrapped cold run's.
type countingAlg struct {
	protocol.Deterministic
	calls atomic.Int64
}

func (c *countingAlg) Legitimate(cfg protocol.Configuration) bool {
	c.calls.Add(1)
	return c.Deterministic.Legitimate(cfg)
}

// analyzeCached loads or builds the full space of a under pol through a
// cache rooted at dir and classifies it. It fails the test when the load
// disagrees with wantHit.
func analyzeCached(t *testing.T, dir string, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options, wantHit bool) *Report {
	t.Helper()
	cache, err := spacecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, hit, err := cache.BuildSpaceContext(t.Context(), a, pol, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if hit != wantHit {
		t.Fatalf("%s: cache hit %v, want %v", pol.Name(), hit, wantHit)
	}
	rep, err := AnalyzeSpaceContext(t.Context(), ts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAnalyzeCachedParity pins the cache's end-to-end contract on the
// decision procedure: a warm load-then-analyze run performs zero exploration
// and renders a bit-identical report — hierarchy verdicts, expected hitting
// times, radii and all.
func TestAnalyzeCachedParity(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []scheduler.Policy{
		scheduler.CentralPolicy, scheduler.DistributedPolicy, scheduler.SynchronousPolicy,
	} {
		dir := t.TempDir()
		cold := analyzeCached(t, dir, inner, pol, statespace.Options{}, false)
		warm := &countingAlg{Deterministic: inner}
		rep := analyzeCached(t, dir, warm, pol, statespace.Options{}, true)
		if warm.calls.Load() != 0 {
			t.Fatalf("%s: warm run made %d exploration calls, want 0 (cache missed)", pol.Name(), warm.calls.Load())
		}
		if *rep != *cold {
			t.Fatalf("%s: warm report differs from cold:\ncold: %+v\nwarm: %+v", pol.Name(), *cold, *rep)
		}
		if rep.String() != cold.String() {
			t.Fatalf("%s: rendered reports differ", pol.Name())
		}
	}
}

// TestAnalyzeFromCachedParity is the same contract on the frontier path.
func TestAnalyzeFromCachedParity(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	seeds := []protocol.Configuration{{1, 0, 2, 1, 0, 3}, {0, 0, 0, 0, 0, 0}}
	cache, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	analyzeFrom := func(a protocol.Algorithm, wantHit bool) *Report {
		ss, hit, err := cache.BuildSubSpaceFromConfigsContext(t.Context(), a, pol, seeds, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		if hit != wantHit {
			t.Fatalf("cache hit %v, want %v", hit, wantHit)
		}
		rep, err := AnalyzeSpaceContext(t.Context(), ss)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := analyzeFrom(inner, false)
	warm := &countingAlg{Deterministic: inner}
	rep := analyzeFrom(warm, true)
	if warm.calls.Load() != 0 {
		t.Fatalf("warm frontier run made %d exploration calls, want 0", warm.calls.Load())
	}
	if *rep != *cold {
		t.Fatalf("warm report differs from cold:\ncold: %+v\nwarm: %+v", *cold, *rep)
	}
}

// TestAnalyzeCachedLargeInstance is the acceptance-scale check: a repeated
// run on a ≥10^5-state instance (tokenring N=11 with modulus 3: 3^11 =
// 177147 configurations) skips exploration entirely and produces a
// bit-identical report.
func TestAnalyzeCachedLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance; skipped with -short")
	}
	inner, err := tokenring.NewWithModulus(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	dir := t.TempDir()
	opt := statespace.Options{MaxStates: 1 << 21}
	cold := analyzeCached(t, dir, inner, pol, opt, false)
	if cold.States < 100_000 {
		t.Fatalf("instance has %d states, want ≥ 10^5 for the acceptance-scale check", cold.States)
	}
	warm := &countingAlg{Deterministic: inner}
	rep := analyzeCached(t, dir, warm, pol, opt, true)
	if warm.calls.Load() != 0 {
		t.Fatalf("warm run explored (%d algorithm calls), want a pure cache load", warm.calls.Load())
	}
	if *rep != *cold || rep.String() != cold.String() {
		t.Fatal("warm report not bit-identical to cold report")
	}
}
