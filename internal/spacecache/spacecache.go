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
// semantics), and, for the forward closure of a k-fault ball, the radius
// k. Any semantic change to the instance changes the key, so a stale file
// is simply never found. All three kinds share one serial format, the
// statespace one, and one load/store path: a load hands the file to
// statespace.Map as one buffer, mapped or read.
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
// (statespace.Map), so a warm load decodes only the legitimacy bits
// instead of copying every array. Systems loaded this way own a mapping
// and should be Closed by the caller when done (a finalizer reclaims
// forgotten ones); callers that cannot tolerate that ownership turn the
// path off with SetMmap(false): the file is then read into memory and
// handed to the same loader, so the arrays are bit-equal and own no
// mapping.
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

// canonical renders the identity of an explored transition system as a
// readable string: the format version (so incompatible layouts never share
// a key), the algorithm's parameterized name, the per-process state
// domains, the exact edge set of the communication graph (which is what
// distinguishes two random trees of equal size), and the policy name.
// Every entry kind keys on it; none is policy-free, since every entry is
// an explored system.
func canonical(a protocol.Algorithm, pol scheduler.Policy) string {
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
	fmt.Fprintf(&sb, "|policy=%s", pol.Name())
	return sb.String()
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

// ballKey returns the cache key of the forward closure of the
// distance-≤k fault ball: the full-space identity extended with the
// radius. The ball itself is not part of the entry; it is re-derived from
// the closure's legitimate states.
func ballKey(a protocol.Algorithm, pol scheduler.Policy, k int) string {
	sum := sha256.Sum256(fmt.Appendf([]byte(canonical(a, pol)), "|ball,k=%d", k))
	return hex.EncodeToString(sum[:12])
}

// load returns the cached entry of the given kind ("space", "subspace" or
// "ball", which is also the filename extension) and key, or (nil, false)
// on any miss — no file, or a file that fails validation (truncated,
// corrupted, wrong version, wrong instance, beyond opt.MaxStates) or holds
// a full space where a closure belongs or vice versa. A miss is never an
// error: the caller rebuilds and the rebuild's store overwrites bad bytes.
//
// The file reaches statespace.Map as one buffer: mapped read-only when
// the mmap path is enabled (the default), read into memory otherwise. A
// mapped hit aliases the mapping and owns it — Close it when done. An
// entry beyond opt.MaxStates is rejected at its 40-byte header, after the
// mapping or the whole read.
func (c *Cache) load(a protocol.Algorithm, pol scheduler.Policy, kind, key string, opt statespace.Options) (*statespace.Space, bool) {
	if c == nil {
		return nil, false
	}
	o := obs.Or(opt.Obs)
	path := filepath.Join(c.dir, key+"."+kind)
	var (
		data    []byte
		unmap   func() error
		trusted bool
		err     error
	)
	if c.MmapEnabled() {
		var fi os.FileInfo
		if data, unmap, fi, err = mmapOpen(path); err == nil {
			st, ok := stampOf(fi)
			trusted = ok && c.trustedStamp(path, st)
		}
	} else {
		data, err = os.ReadFile(path)
	}
	if err == nil {
		sp, err := statespace.Map(data, a, pol, opt.Workers, opt.MaxStates, trusted, unmap)
		// A closure carries Globals; the full index range does not.
		if err == nil && (sp.Globals() != nil) == (kind != "space") {
			sp.Obs = opt.Obs
			touch(path)
			mode := "decode"
			if sp.Mapped() {
				mode = "mmap"
				c.memoize(path)
			}
			observeLoad(o, kind, key, mode, true, int64(len(data)))
			return sp, true
		}
		if err == nil {
			sp.Close()
		}
	}
	observeLoad(o, kind, key, "", false, 0)
	return nil, false
}

// store persists sp as the entry load finds it under, atomically (temp
// file + rename). A nil cache stores nothing.
func (c *Cache) store(sp *statespace.Space, kind, key string) error {
	if c == nil {
		return nil
	}
	err := c.atomicWrite(filepath.Join(c.dir, key+"."+kind), sp)
	if err == nil {
		observeStore(obs.Or(sp.Obs), kind, key)
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
	kind, key := "space", Key(a, pol)
	if sub {
		kind, key = "subspace", SubKey(a, pol, seeds)
	}
	if sp, ok := c.load(a, pol, kind, key, opt); ok {
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
	_ = c.store(sp, kind, key)
	return sp, false, nil
}

// LoadSpace returns the cached full space of (a, pol), with load's miss
// and mmap-ownership contracts.
func (c *Cache) LoadSpace(a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options) (*statespace.Space, bool) {
	return c.load(a, pol, "space", Key(a, pol), opt)
}

// StoreSpace persists a full space under its canonical key.
func (c *Cache) StoreSpace(sp *statespace.Space) error {
	return c.store(sp, "space", Key(sp.Alg, sp.Pol))
}

// LoadBallClosure returns the cached forward closure of the distance-≤k
// fault ball of (a, pol), with load's miss and mmap-ownership contracts.
func (c *Cache) LoadBallClosure(a protocol.Algorithm, pol scheduler.Policy, k int, opt statespace.Options) (*statespace.Space, bool) {
	return c.load(a, pol, "ball", ballKey(a, pol, k), opt)
}

// StoreBallClosure persists the forward closure of the distance-≤k fault
// ball under its (instance, policy, k) key.
func (c *Cache) StoreBallClosure(ss *statespace.Space, k int) error {
	return c.store(ss, "ball", ballKey(ss.Alg, ss.Pol, k))
}

// BuildSpaceContext is statespace.BuildContext behind the cache; hit
// reports which path ran (see build).
func (c *Cache) BuildSpaceContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options) (sp *statespace.Space, hit bool, err error) {
	return c.build(ctx, a, pol, nil, false, opt)
}

// BuildSubSpaceFromConfigsContext is statespace.BuildFromContext behind
// the cache, with the same contract as BuildSpaceContext and the seed set
// given as configurations, validated and encoded by
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
