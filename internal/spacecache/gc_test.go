package spacecache

// Tests of the cache lifecycle layer: the self-describing Entries listing,
// oldest-first GC that never corrupts survivors, gc racing a mapped
// reader, and the last-use touches that feed the eviction order.

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// primeEntries populates c with three entries — two full spaces and one
// subspace — and backdates their last-use times in a known order (ring 4
// oldest, then ring 5, then the subspace newest). Returns the paths in
// that age order.
func primeEntries(t *testing.T, c *Cache) []string {
	t.Helper()
	pol := scheduler.CentralPolicy{}
	if _, _, err := c.BuildSpaceContext(t.Context(), ring(t, 4), pol, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.BuildSpaceContext(t.Context(), ring(t, 5), pol, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.build(t.Context(), ring(t, 5), pol, []int64{0, 7}, true, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	paths := []string{
		filepath.Join(c.Dir(), Key(ring(t, 4), pol)+".space"),
		filepath.Join(c.Dir(), Key(ring(t, 5), pol)+".space"),
		filepath.Join(c.Dir(), SubKey(ring(t, 5), pol, []int64{0, 7})+".subspace"),
	}
	base := time.Now().Add(-time.Hour)
	for i, p := range paths {
		stamp := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestEntriesListing(t *testing.T) {
	c := openTemp(t)
	paths := primeEntries(t, c)
	// A stray file must not be listed (and, below, never deleted).
	stray := filepath.Join(c.Dir(), "README.txt")
	if err := os.WriteFile(stray, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := c.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listed %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Path != paths[i] {
			t.Fatalf("entry %d is %s, want oldest-first order %s", i, e.Path, paths[i])
		}
		fi, err := os.Stat(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		if e.Bytes != fi.Size() || !e.LastUse.Equal(fi.ModTime()) {
			t.Fatalf("entry %d size/last-use do not match the inode", i)
		}
		wantKind := "space"
		if filepath.Ext(e.Path) == ".subspace" {
			wantKind = "subspace"
		}
		if e.Kind != wantKind || e.Key != filepath.Base(e.Path[:len(e.Path)-len(filepath.Ext(e.Path))]) {
			t.Fatalf("entry %d kind/key mismatch: %+v", i, e)
		}
	}

	var nilCache *Cache
	if entries, err := nilCache.Entries(); err != nil || entries != nil {
		t.Fatalf("nil cache Entries = %v, %v", entries, err)
	}
}

func TestGCOldestFirst(t *testing.T) {
	c := openTemp(t)
	paths := primeEntries(t, c)
	entries, err := c.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}

	// Budget exactly one byte under the total: only the oldest entry goes.
	deleted, remaining, err := c.GC(total - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0].Path != paths[0] {
		t.Fatalf("GC deleted %v, want exactly the oldest %s", deleted, paths[0])
	}
	if remaining != total-deleted[0].Bytes {
		t.Fatalf("remaining %d, want %d", remaining, total-deleted[0].Bytes)
	}
	if _, err := os.Stat(paths[0]); !os.IsNotExist(err) {
		t.Fatal("oldest entry still on disk")
	}

	// Survivors are untouched and still load as hits.
	pol := scheduler.CentralPolicy{}
	if _, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 5), pol, statespace.Options{}); err != nil || !hit {
		t.Fatalf("surviving space corrupted by gc: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.build(t.Context(), ring(t, 5), pol, []int64{0, 7}, true, statespace.Options{}); err != nil || !hit {
		t.Fatalf("surviving subspace corrupted by gc: hit=%v err=%v", hit, err)
	}
	// The evicted entry misses and rebuilds cleanly.
	if _, hit, err := c.BuildSpaceContext(t.Context(), ring(t, 4), pol, statespace.Options{}); err != nil || hit {
		t.Fatalf("evicted entry: hit=%v err=%v", hit, err)
	}

	// GC(0) empties the cache but never touches foreign files.
	stray := filepath.Join(c.Dir(), "keep.me")
	if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, remaining, err := c.GC(0); err != nil || remaining != 0 {
		t.Fatalf("GC(0): remaining=%d err=%v", remaining, err)
	}
	if entries, err := c.Entries(); err != nil || len(entries) != 0 {
		t.Fatalf("entries after GC(0): %v, %v", entries, err)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatal("gc deleted a file it does not own")
	}
}

// TestGCWhileMapped pins the eviction-vs-mmap race: deleting an entry some
// loaded system still maps must not invalidate that system — the unlink
// drops the name, the mapping keeps the pages — and later loads of the
// deleted key just miss and rebuild.
func TestGCWhileMapped(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.CentralPolicy{}
	built, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapped, ok := c.LoadSpace(a, pol, statespace.Options{})
	if !ok {
		t.Fatal("warm load missed")
	}
	if !mapped.Mapped() {
		t.Fatal("warm load did not take the mmap path")
	}

	if deleted, remaining, err := c.GC(0); err != nil || len(deleted) == 0 || remaining != 0 {
		t.Fatalf("GC(0) while mapped: deleted=%d remaining=%d err=%v", len(deleted), remaining, err)
	}

	// The mapped system still reads correctly off the unlinked inode.
	assertSameSpace(t, built, mapped)
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	// And the key now misses cleanly.
	if _, ok := c.LoadSpace(a, pol, statespace.Options{}); ok {
		t.Fatal("deleted entry served as a hit")
	}
}

// TestMmapDecodeParity pins that the two load paths hand back bit-equal
// systems and that SetMmap(false) really forces plain decoded arrays.
func TestMmapDecodeParity(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 5)
	pol := scheduler.DistributedPolicy{}
	seeds := []int64{0, 7, 11}
	builtSp, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.build(t.Context(), a, pol, seeds, true, statespace.Options{}); err != nil {
		t.Fatal(err)
	}

	mappedSp, ok := c.LoadSpace(a, pol, statespace.Options{})
	if !ok {
		t.Fatal("space load missed")
	}
	mappedSS, ok := c.load(a, pol, "subspace", SubKey(a, pol, seeds), statespace.Options{})
	if !ok {
		t.Fatal("subspace load missed")
	}
	if mmapSupported && (!mappedSp.Mapped() || !mappedSS.Mapped()) {
		t.Fatal("default loads did not map")
	}

	c.SetMmap(false)
	decodedSp, ok := c.LoadSpace(a, pol, statespace.Options{})
	if !ok {
		t.Fatal("decode-forced space load missed")
	}
	decodedSS, ok := c.load(a, pol, "subspace", SubKey(a, pol, seeds), statespace.Options{})
	if !ok {
		t.Fatal("decode-forced subspace load missed")
	}
	if decodedSp.Mapped() || decodedSS.Mapped() {
		t.Fatal("SetMmap(false) still mapped")
	}

	assertSameSpace(t, builtSp, mappedSp)
	assertSameSpace(t, decodedSp, mappedSp)
	mo, ms, mp := mappedSS.CSR()
	do, ds, dp := decodedSS.CSR()
	if !slices.Equal(mo, do) || !slices.Equal(ms, ds) || !slices.Equal(mp, dp) ||
		!slices.Equal(mappedSS.Globals(), decodedSS.Globals()) ||
		!slices.Equal(mappedSS.Legit, decodedSS.Legit) {
		t.Fatal("mapped and decoded subspaces differ")
	}
	mappedSp.Close()
	mappedSS.Close()
}

// TestLoadTouchesLastUse pins the atime side of the gc policy: a hit on
// either load path refreshes the entry's last-use stamp.
func TestLoadTouchesLastUse(t *testing.T) {
	c := openTemp(t)
	a := ring(t, 4)
	pol := scheduler.CentralPolicy{}
	if _, _, err := c.BuildSpaceContext(t.Context(), a, pol, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(c.Dir(), Key(a, pol)+".space")
	past := time.Now().Add(-time.Hour)

	for _, mode := range []bool{true, false} {
		c.SetMmap(mode)
		if err := os.Chtimes(path, past, past); err != nil {
			t.Fatal(err)
		}
		sp, ok := c.LoadSpace(a, pol, statespace.Options{})
		if !ok {
			t.Fatalf("mmap=%v: load missed", mode)
		}
		sp.Close()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().After(past.Add(time.Minute)) {
			t.Fatalf("mmap=%v: load did not refresh last-use (mtime %v)", mode, fi.ModTime())
		}
	}
}
