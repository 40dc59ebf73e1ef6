package spacecache

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// countingAlg counts the exploration calls made into the algorithm; a
// cache hit must make none. It forwards Name/Graph/StateCount etc., so
// its cache key equals the wrapped instance's.
type countingAlg struct {
	protocol.Algorithm
	calls atomic.Int64
}

func (c *countingAlg) Legitimate(cfg protocol.Configuration) bool {
	c.calls.Add(1)
	return c.Algorithm.Legitimate(cfg)
}

func (c *countingAlg) EnabledAction(cfg protocol.Configuration, p int) int {
	c.calls.Add(1)
	return c.Algorithm.EnabledAction(cfg, p)
}

func ring(t *testing.T, n int) *tokenring.Algorithm {
	t.Helper()
	a, err := tokenring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func openTemp(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyCanonical(t *testing.T) {
	r5, r5b, r6 := ring(t, 5), ring(t, 5), ring(t, 6)
	pol := scheduler.CentralPolicy
	if Key(r5, pol) != Key(r5b, pol) {
		t.Fatal("two constructions of the same instance must share a key")
	}
	distinct := map[string]string{
		"same":        Key(r5, pol),
		"other n":     Key(r6, pol),
		"other pol":   Key(r5, scheduler.DistributedPolicy),
		"transformed": mustKey(t, r5, pol),
	}
	seen := map[string]string{}
	for what, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s and %s share key %s", what, prev, k)
		}
		seen[k] = what
	}
}

func mustKey(t *testing.T, r *tokenring.Algorithm, pol scheduler.Policy) string {
	t.Helper()
	tr, err := transformer.NewBiased(r, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return Key(tr, pol)
}

func TestKeySensitiveToBias(t *testing.T) {
	r := ring(t, 5)
	a, err := transformer.NewBiased(r, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := transformer.NewBiased(r, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if Key(a, scheduler.CentralPolicy) == Key(b, scheduler.CentralPolicy) {
		t.Fatal("coin bias must be part of the cache key")
	}
}

func TestSubKeySeedSetSemantics(t *testing.T) {
	r := ring(t, 5)
	pol := scheduler.CentralPolicy
	base := SubKey(r, pol, []int64{3, 1, 2})
	if SubKey(r, pol, []int64{2, 3, 1}) != base {
		t.Fatal("seed order must not affect the key")
	}
	if SubKey(r, pol, []int64{1, 1, 2, 3, 3}) != base {
		t.Fatal("duplicate seeds must not affect the key")
	}
	if SubKey(r, pol, []int64{1, 2}) == base {
		t.Fatal("a different seed set must change the key")
	}
	if SubKey(r, pol, []int64{1, 2, 3}) == Key(r, pol) {
		t.Fatal("subspace and full-space keys must differ")
	}
}

func TestBuildSpaceMissThenHit(t *testing.T) {
	c := openTemp(t)
	a := &countingAlg{Algorithm: ring(t, 5)}
	pol := scheduler.CentralPolicy

	cold, hit, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first build must miss")
	}
	coldCalls := a.calls.Load()
	if coldCalls == 0 {
		t.Fatal("cold build must explore")
	}

	warm, hit, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second build must hit the cache")
	}
	if a.calls.Load() != coldCalls {
		t.Fatalf("cache hit made %d algorithm calls, want 0", a.calls.Load()-coldCalls)
	}
	assertSameSpace(t, cold, warm)
}

// probValues returns the space's edge probabilities, read through At.
func probValues(sp *statespace.Space) []float64 {
	_, _, p := sp.CSR()
	out := make([]float64, sp.Edges())
	for e := range out {
		out[e] = p.At(int64(e))
	}
	return out
}

func assertSameSpace(t *testing.T, want, got *statespace.Space) {
	t.Helper()
	if want.States != got.States {
		t.Fatalf("states %d != %d", got.States, want.States)
	}
	wo, wsucc, wp := want.CSR()
	po, psucc, pp := got.CSR()
	if !slices.Equal(wo, po) || !slices.Equal(wsucc, psucc) || !slices.Equal(wp.Palette(), pp.Palette()) ||
		!slices.Equal(probValues(want), probValues(got)) {
		t.Fatal("loaded space CSR differs from built space")
	}
	if !slices.Equal(want.Legit, got.Legit) {
		t.Fatal("loaded space legitimacy differs")
	}
}

func TestBuildSubSpaceMissThenHit(t *testing.T) {
	c := openTemp(t)
	a := &countingAlg{Algorithm: ring(t, 5)}
	pol := scheduler.DistributedPolicy
	seeds := []int64{0, 7, 11}

	cold, hit, err := c.build(t.Context(), a, pol, seeds, true, statespace.Options{})
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	coldCalls := a.calls.Load()

	// Same set, different order and duplicates: still a hit.
	warm, hit, err := c.build(t.Context(), a, pol, []int64{11, 0, 7, 7}, true, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("equal seed set must hit")
	}
	if a.calls.Load() != coldCalls {
		t.Fatal("cache hit explored")
	}
	if cold.States != warm.States || !slices.Equal(cold.Globals(), warm.Globals()) {
		t.Fatal("loaded subspace differs from built subspace")
	}
	wo, wsucc, wp := cold.CSR()
	po, psucc, pp := warm.CSR()
	if !slices.Equal(wo, po) || !slices.Equal(wsucc, psucc) || !slices.Equal(wp.Palette(), pp.Palette()) ||
		!slices.Equal(probValues(cold), probValues(warm)) {
		t.Fatal("loaded subspace CSR differs")
	}

	// A different seed set is a clean miss.
	if _, hit, err := c.build(t.Context(), a, pol, []int64{0, 7}, true, statespace.Options{}); err != nil || hit {
		t.Fatalf("different seed set: hit=%v err=%v", hit, err)
	}
}

// TestStaleKeyMiss pins that changing any instance parameter misses: the
// cache can never serve the wrong instance.
func TestStaleKeyMiss(t *testing.T) {
	c := openTemp(t)
	pol := scheduler.CentralPolicy
	if _, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 5), pol, statespace.Options{}); err != nil || hit {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 6), pol, statespace.Options{}); err != nil || hit {
		t.Fatalf("n=6 after caching n=5 must miss, hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 5), scheduler.SynchronousPolicy, statespace.Options{}); err != nil || hit {
		t.Fatalf("other policy must miss, hit=%v err=%v", hit, err)
	}
	// The original triple still hits.
	if _, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 5), pol, statespace.Options{}); err != nil || !hit {
		t.Fatalf("original instance must still hit, hit=%v err=%v", hit, err)
	}
}

// TestBallClosureKey pins the ball entry's identity: a closure stored for
// (instance, policy, k) is served back bit-equal under exactly that
// triple, and any other radius, policy or instance misses. A nil cache
// stores nothing and always misses.
func TestBallClosureKey(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.CentralPolicy
	ss, err := statespace.BuildFromContext(t.Context(), a, pol, []int64{0, 7, 11}, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreBallClosure(ss, 1); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadBallClosure(a, pol, 1, statespace.Options{})
	if !ok {
		t.Fatal("stored ball closure missed")
	}
	so, ssucc, sp := ss.CSR()
	lo, lsucc, lp := got.CSR()
	if !slices.Equal(so, lo) || !slices.Equal(ssucc, lsucc) || !slices.Equal(sp.Palette(), lp.Palette()) || !slices.Equal(probValues(ss), probValues(got)) ||
		!slices.Equal(ss.Globals(), got.Globals()) || !slices.Equal(ss.Legit, got.Legit) {
		t.Fatal("loaded ball closure differs from the stored one")
	}
	got.Close()
	for _, other := range []struct {
		name string
		a    protocol.Algorithm
		pol  scheduler.Policy
		k    int
	}{
		{"other radius", a, pol, 2},
		{"other policy", a, scheduler.DistributedPolicy, 1},
		{"other instance", ring(t, 6), pol, 1},
	} {
		if _, ok := c.LoadBallClosure(other.a, other.pol, other.k, statespace.Options{}); ok {
			t.Errorf("%s served the stored ball closure", other.name)
		}
	}
	var nilCache *Cache
	if err := nilCache.StoreBallClosure(ss, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := nilCache.LoadBallClosure(a, pol, 1, statespace.Options{}); ok {
		t.Fatal("nil cache hit")
	}
}

// TestCorruptEntryRebuildsAndRepairs pins the degrade-to-rebuild contract:
// a damaged cache file is a miss, the rebuild overwrites it, and the next
// run hits again.
func TestCorruptEntryRebuildsAndRepairs(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.CentralPolicy
	ref, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), Key(a, pol)+".space")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"corrupted": func(b []byte) []byte { b = slices.Clone(b); b[len(b)/2] ^= 0xff; return b },
		"version":   func(b []byte) []byte { b = slices.Clone(b); b[4]++; return b },
		"empty":     func([]byte) []byte { return nil },
	} {
		if err := os.WriteFile(path, mutate(slices.Clone(data)), 0o644); err != nil {
			t.Fatal(err)
		}
		sp, hit, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
		if err != nil {
			t.Fatalf("%s: rebuild failed: %v", name, err)
		}
		if hit {
			t.Fatalf("%s cache file served as a hit", name)
		}
		assertSameSpace(t, ref, sp)
		// The rebuild must have repaired the entry.
		if _, hit, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{}); err != nil || !hit {
			t.Fatalf("%s: entry not repaired after rebuild, hit=%v err=%v", name, hit, err)
		}
	}
}

// TestFormatV2EntryRebuilt: testdata holds tokenring(4)'s central space
// as the previous serial format, v2, wrote it (one float64 per edge).
// Placed where the cache looks for the entry, it fails the version gate on
// the mapped and on the decoding path alike: a miss, rebuilt and
// overwritten in the current format.
func TestFormatV2EntryRebuilt(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "tokenring4-central-v2.space"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(v2[4:6]); v != 2 {
		t.Fatalf("testdata file is format v%d, want v2", v)
	}
	a := ring(t, 4)
	pol := scheduler.CentralPolicy
	ref, err := statespace.Build(a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{true, false} {
		c := openTemp(t)
		c.SetMmap(mmap)
		path := filepath.Join(c.Dir(), Key(a, pol)+".space")
		if err := os.WriteFile(path, v2, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, hit, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
		if err != nil || hit {
			t.Fatalf("mmap=%v: v2 entry: hit=%v err=%v, want a miss and a rebuild", mmap, hit, err)
		}
		assertSameSpace(t, ref, sp)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(data[4:6]); v != statespace.SerialVersion {
			t.Fatalf("mmap=%v: entry still format v%d after the rebuild", mmap, v)
		}
		warm, hit, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
		if err != nil || !hit {
			t.Fatalf("mmap=%v: rewritten entry: hit=%v err=%v, want a hit", mmap, hit, err)
		}
		assertSameSpace(t, ref, warm)
		warm.Close()
	}
}

// TestLoadRejectsWrongKind pins the entry-kind check: the readers accept
// a full space and a closure alike, so a .space file holding a closure,
// or a .subspace file holding a full space, must be a miss on both load
// paths — never served as the other kind.
func TestLoadRejectsWrongKind(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.CentralPolicy
	seeds := []int64{0, 7}
	if _, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.build(t.Context(), a, pol, seeds, true, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	spacePath := filepath.Join(c.Dir(), Key(a, pol)+".space")
	subPath := filepath.Join(c.Dir(), SubKey(a, pol, seeds)+".subspace")
	full, err := os.ReadFile(spacePath)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := os.ReadFile(subPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spacePath, sub, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(subPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{true, false} {
		c.SetMmap(mmap)
		if sp, ok := c.LoadSpace(a, pol, statespace.Options{}); ok {
			t.Fatalf("mmap=%v: closure served as a full space (%d states)", mmap, sp.States)
		}
		if ss, ok := c.load(a, pol, "subspace", SubKey(a, pol, seeds), statespace.Options{}); ok {
			t.Fatalf("mmap=%v: full space served as a closure (%d states)", mmap, ss.States)
		}
	}
}

// TestLoadRespectsStateCap pins that a cached system larger than the
// caller's cap is not served: the rebuild enforces the cap's error.
func TestLoadRespectsStateCap(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.CentralPolicy
	sp, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadSpace(a, pol, statespace.Options{MaxStates: int64(sp.States) - 1}); ok {
		t.Fatal("cached space beyond the caller's cap must not load")
	}
	if _, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{MaxStates: int64(sp.States) - 1}); err == nil {
		t.Fatal("rebuild under the tighter cap must fail like an uncached build")
	}
	if _, ok := c.LoadSpace(a, pol, statespace.Options{MaxStates: int64(sp.States)}); !ok {
		t.Fatal("cap exactly at the space size must load (inclusive cap)")
	}
}

// TestStoreFailureDoesNotFailBuild pins that an unwritable cache degrades
// to "no caching": the explored space is returned, not an error — the
// cache can never turn a successful analysis into a failure.
func TestStoreFailureDoesNotFailBuild(t *testing.T) {
	c := &Cache{dir: "/dev/null/not-a-directory"} // every CreateTemp fails
	sp, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 4), scheduler.CentralPolicy, statespace.Options{})
	if err != nil {
		t.Fatalf("store failure surfaced as a build error: %v", err)
	}
	if hit || sp == nil {
		t.Fatalf("expected a fresh build, got hit=%v sp=%v", hit, sp != nil)
	}
	ss, hit, err := c.build(t.Context(), ring(t, 4), scheduler.CentralPolicy, []int64{0}, true, statespace.Options{})
	if err != nil || hit || ss == nil {
		t.Fatalf("subspace path: hit=%v err=%v", hit, err)
	}
	// Storing directly does report the disk trouble for callers who care.
	if err := c.StoreSpace(sp); err == nil {
		t.Fatal("StoreSpace to an unwritable directory must error")
	}
}

func TestNilCacheBuilds(t *testing.T) {
	var c *Cache // also what Open("") returns
	sp, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 4), scheduler.CentralPolicy, statespace.Options{})
	if err != nil || hit || sp == nil {
		t.Fatalf("nil cache must plain-build: sp=%v hit=%v err=%v", sp != nil, hit, err)
	}
	if c2, err := Open(""); c2 != nil || err != nil {
		t.Fatalf(`Open("") = %v, %v; want nil no-op cache`, c2, err)
	}
	if _, hit, err := c.build(t.Context(), ring(t, 4), scheduler.CentralPolicy, []int64{0}, true, statespace.Options{}); err != nil || hit {
		t.Fatalf("nil cache subspace: hit=%v err=%v", hit, err)
	}
}

// TestTrustedWarmLoadsStayCorrect pins the validate-once memo: repeated
// warm loads (the trusted sublinear path after the first full validation)
// return the same system, and a rewritten entry — fresh inode via rename,
// even with the memoized mtime forged back — falls off the memo and is
// re-validated in full, so corruption is a miss, never a wrong answer.
func TestTrustedWarmLoadsStayCorrect(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.CentralPolicy
	ref, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), Key(a, pol)+".space")

	// The first load validates in full and memoizes; the second takes the
	// trusted path. Both must match the built space.
	for i := 0; i < 2; i++ {
		sp, ok := c.LoadSpace(a, pol, statespace.Options{})
		if !ok {
			t.Fatalf("load %d missed", i)
		}
		assertSameSpace(t, ref, sp)
		sp.Close()
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Adversarial rewrite: corrupt bytes renamed into place — the same way
	// every writer replaces entries — with the memoized mtime forged back.
	// The inode differs, so the memo must not trust the new bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	tmp := path + ".rewrite"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadSpace(a, pol, statespace.Options{}); ok {
		t.Fatal("corrupt rewritten entry served from the trusted path")
	}
}
