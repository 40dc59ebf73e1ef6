// Package spacecache persists explored transition systems on disk so that
// repeated analyses of the same (algorithm, instance, policy) — stabbench
// reruns, overlapping experiment instances, k-fault sweeps — skip
// exploration entirely and load the CSR arrays in milliseconds.
//
// The hierarchy verdicts the library computes are pure functions of
// (algorithm, instance, policy): once a space is explored, every later run
// over the same triple re-derives byte-identical arrays. The cache
// therefore keys each file by a canonical hash of that triple — the
// algorithm's parameterized name, its process count and per-process state
// domains, the exact communication-graph edge set, and the policy name —
// plus, for frontier-explored subspaces, a hash of the seed *set* (order-
// and duplicate-insensitive, matching BuildFromContext's dedup
// semantics). Any semantic change to the instance changes the key, so a
// stale file is simply never found.
//
// Robustness contract: a cache must never produce a wrong answer, only a
// slower one. Loads that fail for any reason — missing file, truncation,
// corruption, format-version mismatch, a space larger than the caller's
// state cap — degrade to a fresh build whose result overwrites the bad
// entry. Files are written to a temp name and renamed into place, so
// concurrent or crashed writers leave either the old bytes or the new,
// never a torn file. A nil *Cache is valid and means "no caching": every
// Build* method then just explores, which lets callers thread an optional
// -cache flag through without branching.
package spacecache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// Cache is an on-disk store of serialized transition systems. The zero
// value and the nil pointer are both valid "no caching" caches.
//
// Where the platform supports it, loads are zero-copy by default: the
// cache file is mmap'd read-only and the CSR sections alias the mapping
// (statespace.Map), so a warm analysis touches only the pages it reads
// instead of decoding every byte. Systems loaded this way own a mapping
// and should be Closed by the caller when done (a finalizer reclaims
// forgotten ones); callers that cannot tolerate that ownership turn the
// path off with SetMmap(false) and get heap arrays from statespace.Read,
// which runs the same decoder over a copy of the file — bit-equal by
// construction.
//
// The first mapped load of an entry validates the whole file (checksum
// and structure). Its (device, inode, size, mtime) identity is then
// memoized, and later loads of bytes with the same identity skip the
// O(bytes) passes — the sublinear warm path. Every write in this package
// replaces files by rename (fresh inode) and touch moves mtime on each
// use, so any rewritten or externally modified entry falls off the memo
// and is re-validated in full.
type Cache struct {
	dir    string
	noMmap bool

	mu        sync.Mutex
	validated map[string]fileStamp // path → identity of the last fully validated bytes
}

// fileStamp is the identity the validation memo trusts: same device,
// inode, size and mtime means the same bytes that already passed a full
// validation by this cache instance.
type fileStamp struct {
	dev, ino uint64
	size     int64
	mtimeNS  int64
}

// trustedStamp reports whether st matches the memoized identity of the
// bytes last validated at path.
func (c *Cache) trustedStamp(path string, st fileStamp) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.validated[path]
	return ok && prev == st
}

// memoize records path's current (post-touch) identity as fully
// validated, so the next load of the same bytes can take the trusted
// path. Best-effort: a failed stat just means the next load re-validates.
func (c *Cache) memoize(path string) {
	fi, err := os.Stat(path)
	if err != nil {
		return
	}
	st, ok := stampOf(fi)
	if !ok {
		return
	}
	c.mu.Lock()
	if c.validated == nil {
		c.validated = make(map[string]fileStamp)
	}
	c.validated[path] = st
	c.mu.Unlock()
}

// Open returns a cache rooted at dir, creating the directory if needed.
// An empty dir returns nil — the no-op cache — so CLI flags thread through
// unconditionally.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spacecache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory ("" for the no-op cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// SetMmap toggles the zero-copy mmap load path, on by default where the
// platform supports it. Off means every load reads the file into heap
// arrays with no Close obligation. A nil cache ignores the call.
func (c *Cache) SetMmap(on bool) {
	if c != nil {
		c.noMmap = !on
	}
}

// MmapEnabled reports whether loads attempt the zero-copy path.
func (c *Cache) MmapEnabled() bool {
	return c != nil && !c.noMmap && mmapSupported
}

// touch bumps the entry's last-use time — the age signal GC evicts by.
// It rewrites both atime and mtime: bare atime is frozen or lazy under
// the common noatime/relatime mount options, and cache files are written
// once and never modified, so mtime is free to carry "last used". Errors
// are ignored; last-use is advisory.
func touch(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// canonicalInstance renders the policy-free cache identity of an algorithm
// instance as a readable string: the format version (so incompatible
// layouts never share a key), the algorithm's parameterized name, the
// per-process state domains, and the exact edge set of the communication
// graph (which is what distinguishes two random trees of equal size).
// Entries that do not depend on the scheduler — the fault-ball
// enumeration above all — key on this alone, so one ball file serves
// every policy.
func canonicalInstance(a protocol.Algorithm) string {
	g := a.Graph()
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d|alg=%s|n=%d|domains=", statespace.SerialVersion, a.Name(), g.N())
	for p := 0; p < g.N(); p++ {
		fmt.Fprintf(&sb, "%d,", a.StateCount(p))
	}
	sb.WriteString("|edges=")
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d-%d;", e[0], e[1])
	}
	return sb.String()
}

// canonical extends the instance identity with the policy name — the
// identity of explored transition systems.
func canonical(a protocol.Algorithm, pol scheduler.Policy) string {
	return fmt.Sprintf("%s|policy=%s", canonicalInstance(a), pol.Name())
}

// Key returns the canonical cache key of a full space: a hex digest of the
// (algorithm, instance, policy) identity. Two runs constructing the same
// instance independently produce the same key.
func Key(a protocol.Algorithm, pol scheduler.Policy) string {
	sum := sha256.Sum256([]byte(canonical(a, pol)))
	return hex.EncodeToString(sum[:12])
}

// SubKey returns the canonical cache key of a frontier-explored subspace:
// the full-space identity extended with a hash of the seed *set*. Seed
// order and duplicates do not affect the key, mirroring BuildFromContext
// (which dedups seeds and canonicalizes local ids to ascending-global
// order, so the built subspace is a pure function of the set).
func SubKey(a protocol.Algorithm, pol scheduler.Policy, seeds []int64) string {
	set := slices.Clone(seeds)
	slices.Sort(set)
	set = slices.Compact(set)
	h := sha256.New()
	h.Write([]byte(canonical(a, pol)))
	h.Write([]byte("|seeds="))
	var b [8]byte
	for _, g := range set {
		binary.LittleEndian.PutUint64(b[:], uint64(g))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// entryOf names the cache entry of a full space (sub false) or of the
// closure of a seed set: its kind, which is also its filename extension,
// and its key.
func entryOf(a protocol.Algorithm, pol scheduler.Policy, seeds []int64, sub bool) (kind, key string) {
	if sub {
		return "subspace", SubKey(a, pol, seeds)
	}
	return "space", Key(a, pol)
}

// load returns the cached entry, or (nil, false) on any miss — no file,
// or a file that fails validation (truncated, corrupted, wrong version,
// wrong instance, beyond opt.MaxStates) or holds the other kind of
// system. A miss is never an error: the caller rebuilds and the rebuild's
// store overwrites bad bytes.
//
// With the mmap path enabled (the default) a hit is zero-copy and the
// returned space owns a file mapping — Close it when done. Anything Map
// declines (ErrNotMappable) or rejects falls back to statespace.Read,
// which re-derives the hit-or-miss verdict on its own. Both readers check
// opt.MaxStates at the header, so an oversized entry costs a 32-byte read.
func (c *Cache) load(a protocol.Algorithm, pol scheduler.Policy, seeds []int64, sub bool, opt statespace.Options) (*statespace.Space, bool) {
	if c == nil {
		return nil, false
	}
	o := obs.Or(opt.Obs)
	kind, key := entryOf(a, pol, seeds, sub)
	path := filepath.Join(c.dir, key+"."+kind)
	// A closure carries Globals; the full index range does not.
	isKind := func(sp *statespace.Space) bool { return (sp.Globals() != nil) == sub }
	if c.MmapEnabled() {
		if data, unmap, fi, err := mmapOpen(path); err == nil {
			mapFile := statespace.Map
			if st, ok := stampOf(fi); ok && c.trustedStamp(path, st) {
				mapFile = statespace.MapTrusted
			}
			sp, err := mapFile(data, a, pol, opt.Workers, opt.MaxStates, unmap)
			if err == nil && isKind(sp) {
				touch(path)
				c.memoize(path)
				observeLoad(o, kind, key, "mmap", true, fi.Size())
				return sp, true
			}
			if err == nil {
				sp.Close()
			} else {
				unmap()
			}
		}
	}
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		sp, err := statespace.Read(f, a, pol, opt.Workers, opt.MaxStates)
		if err == nil && isKind(sp) {
			touch(path)
			observeLoad(o, kind, key, "decode", true, sizeOf(f))
			return sp, true
		}
	}
	observeLoad(o, kind, key, "", false, 0)
	return nil, false
}

// store persists sp as the entry load finds it under, atomically (temp
// file + rename). A nil cache stores nothing.
func (c *Cache) store(sp *statespace.Space, seeds []int64, sub bool) error {
	if c == nil {
		return nil
	}
	kind, key := entryOf(sp.Alg, sp.Pol, seeds, sub)
	err := c.atomicWrite(filepath.Join(c.dir, key+"."+kind), sp)
	if err == nil {
		observeStore(obs.Default(), kind, key)
	}
	return err
}

// build is the load-or-explore shared by the Build* methods: a hit loads
// the system without touching the algorithm at all; a miss explores and
// persists the result. A failed store (full or read-only disk) is
// deliberately not an error — the built system is valid and is returned;
// the next run simply misses again. The cache never turns a successful
// analysis into a failure, only a slower one. A cancelled exploration
// stores nothing, and the atomic write means no partial entry can appear
// even on a crash.
func (c *Cache) build(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, seeds []int64, sub bool, opt statespace.Options) (*statespace.Space, bool, error) {
	if sp, ok := c.load(a, pol, seeds, sub, opt); ok {
		return sp, true, nil
	}
	var (
		sp  *statespace.Space
		err error
	)
	if sub {
		sp, err = statespace.BuildFromContext(ctx, a, pol, seeds, opt)
	} else {
		sp, err = statespace.BuildContext(ctx, a, pol, opt)
	}
	if err != nil {
		return nil, false, err
	}
	_ = c.store(sp, seeds, sub)
	return sp, false, nil
}

// LoadSpace returns the cached full space of (a, pol), with load's miss
// and mmap-ownership contracts.
func (c *Cache) LoadSpace(a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options) (*statespace.Space, bool) {
	return c.load(a, pol, nil, false, opt)
}

// StoreSpace persists a full space under its canonical key.
func (c *Cache) StoreSpace(sp *statespace.Space) error { return c.store(sp, nil, false) }

// LoadSubSpace returns the cached closure of (a, pol, seed set), with
// load's miss and mmap-ownership contracts.
func (c *Cache) LoadSubSpace(a protocol.Algorithm, pol scheduler.Policy, seeds []int64, opt statespace.Options) (*statespace.Space, bool) {
	return c.load(a, pol, seeds, true, opt)
}

// StoreSubSpace persists a closure under the canonical key of its seed
// set. The seeds must be the ones it was built from.
func (c *Cache) StoreSubSpace(ss *statespace.Space, seeds []int64) error {
	return c.store(ss, seeds, true)
}

// BuildSpaceContext is statespace.BuildContext behind the cache; hit
// reports which path ran (see build).
func (c *Cache) BuildSpaceContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options) (sp *statespace.Space, hit bool, err error) {
	return c.build(ctx, a, pol, nil, false, opt)
}

// BuildSubSpaceContext is statespace.BuildFromContext behind the cache,
// with the same contract as BuildSpaceContext.
func (c *Cache) BuildSubSpaceContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, seeds []int64, opt statespace.Options) (ss *statespace.Space, hit bool, err error) {
	return c.build(ctx, a, pol, seeds, true, opt)
}

// BuildSubSpaceFromConfigsContext is BuildSubSpaceContext with the seed
// set given as configurations, validated and encoded by
// statespace.EncodeConfigs.
func (c *Cache) BuildSubSpaceFromConfigsContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, cfgs []protocol.Configuration, opt statespace.Options) (*statespace.Space, bool, error) {
	seeds, err := statespace.EncodeConfigs(a, cfgs)
	if err != nil {
		return nil, false, err
	}
	return c.build(ctx, a, pol, seeds, true, opt)
}

// atomicWrite streams the system to a temp file in the cache directory and
// renames it over the final path, so readers only ever observe complete,
// checksummed files.
func (c *Cache) atomicWrite(path string, wt io.WriterTo) error {
	tmp, err := os.CreateTemp(c.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("spacecache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := wt.WriteTo(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("spacecache: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("spacecache: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("spacecache: %w", err)
	}
	return nil
}
