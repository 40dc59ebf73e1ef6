package spacecache_test

import (
	"os"
	"path/filepath"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// TestBallRoundTrip pins store→load bit-equality of ball entries across
// radii, including the k=0 boundary (the ball is exactly the legitimate
// set) and the policy independence of the key.
func TestBallRoundTrip(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cap := statespace.StateCap(0)
	for k := 0; k <= 2; k++ {
		globals, dist, err := checker.FaultBallContext(t.Context(), a, k, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.LoadBall(a, k, cap); ok {
			t.Fatalf("k=%d: load hit before any store", k)
		}
		if err := c.StoreBall(a, k, globals, dist); err != nil {
			t.Fatal(err)
		}
		g2, d2, ok := c.LoadBall(a, k, cap)
		if !ok {
			t.Fatalf("k=%d: load missed after store", k)
		}
		if len(g2) != len(globals) || len(d2) != len(dist) {
			t.Fatalf("k=%d: loaded %d/%d entries, want %d", k, len(g2), len(d2), len(globals))
		}
		for i := range globals {
			if g2[i] != globals[i] || d2[i] != dist[i] {
				t.Fatalf("k=%d: entry %d: loaded (%d,%d), want (%d,%d)", k, i, g2[i], d2[i], globals[i], dist[i])
			}
		}
	}
	// k=0 boundary: the stored ball is the legitimate set itself, every
	// distance 0.
	g0, d0, ok := c.LoadBall(a, 0, cap)
	if !ok {
		t.Fatal("k=0 entry missing")
	}
	for i, d := range d0 {
		if d != 0 {
			t.Fatalf("k=0 ball has distance %d at %d", d, i)
		}
	}
	if len(g0) != 5*tokenring.MN(5) {
		t.Fatalf("k=0 ball has %d configurations, closed form predicts %d", len(g0), 5*tokenring.MN(5))
	}
	// The ball knows no scheduler: the same key serves every policy, so
	// BallKey must not vary by anything but instance and radius.
	if spacecache.BallKey(a, 0) == spacecache.BallKey(a, 1) {
		t.Fatal("distinct radii share a ball key")
	}
}

// TestBallStaleKeyMiss pins key hygiene: a semantically different instance
// (other size, other modulus) never finds the entry.
func TestBallStaleKeyMiss(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	globals, dist, err := checker.FaultBallContext(t.Context(), a, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreBall(a, 1, globals, dist); err != nil {
		t.Fatal(err)
	}
	other, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadBall(other, 1, statespace.StateCap(0)); ok {
		t.Fatal("ball of tokenring(5) served for tokenring(6)")
	}
	modded, err := tokenring.NewWithModulus(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadBall(modded, 1, statespace.StateCap(0)); ok {
		t.Fatal("ball of modulus-3 ring served for modulus-4 ring")
	}
	if _, _, ok := c.LoadBall(a, 2, statespace.StateCap(0)); ok {
		t.Fatal("radius-1 ball served for radius 2")
	}
}

// TestBallCorruptionRejected pins the degrade-to-rebuild contract: every
// single-byte corruption of a stored ball is a miss, never a wrong load,
// and a fresh store repairs the entry in place.
func TestBallCorruptionRejected(t *testing.T) {
	a, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := spacecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	globals, dist, err := checker.FaultBallContext(t.Context(), a, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreBall(a, 1, globals, dist); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, spacecache.BallKey(a, 1)+".ball")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cap := statespace.StateCap(0)
	for at := 0; at < len(pristine); at += 7 {
		bad := append([]byte(nil), pristine...)
		bad[at] ^= 0x41
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, _, ok := c.LoadBall(a, 1, cap); ok {
			// A flipped byte may only be accepted if it decodes identically
			// (impossible here: CRC covers every payload byte).
			t.Fatalf("corruption at byte %d accepted (loaded %d globals)", at, len(g))
		}
	}
	// Truncations are misses too.
	for _, cut := range []int{1, 8, len(pristine) / 2, len(pristine) - 1} {
		if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := c.LoadBall(a, 1, cap); ok {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// The rebuild's store overwrites the bad bytes and the entry works
	// again.
	if err := c.StoreBall(a, 1, globals, dist); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadBall(a, 1, cap); !ok {
		t.Fatal("repaired entry still missing")
	}
}

// TestBallCapAndNilSafety pins the cap gate (an entry beyond the caller's
// MaxStates is a miss, not a memory bomb) and the nil-cache no-ops.
func TestBallCapAndNilSafety(t *testing.T) {
	a, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spacecache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	globals, dist, err := checker.FaultBallContext(t.Context(), a, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreBall(a, 1, globals, dist); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.LoadBall(a, 1, int64(len(globals))-1); ok {
		t.Fatal("entry beyond the state cap served")
	}
	if _, _, ok := c.LoadBall(a, 1, int64(len(globals))); !ok {
		t.Fatal("entry exactly at the state cap rejected (cap is inclusive)")
	}
	var nilCache *spacecache.Cache
	if _, _, ok := nilCache.LoadBall(a, 1, statespace.StateCap(0)); ok {
		t.Fatal("nil cache load hit")
	}
	if err := nilCache.StoreBall(a, 1, globals, dist); err != nil {
		t.Fatal("nil cache store errored")
	}
}
