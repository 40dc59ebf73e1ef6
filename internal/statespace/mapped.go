// Zero-copy loading of serialized transition systems. Given the file's
// bytes as one contiguous buffer (in practice a read-only mmap established
// by internal/spacecache), Map validates the header, section counts,
// padding and CRC-32C once, then aliases the int64/int32/float64/uint8
// section payloads in place via unsafe.Slice — format v3 guarantees every
// payload sits on an 8-byte boundary relative to the (page-aligned)
// buffer start, so the aliased slices are well-aligned by construction,
// and the loader verifies it anyway. Only the bit-packed legitimacy vector is decoded (it
// cannot alias []bool; at one bit per state it is the cheapest section by
// far). The result is a Space whose CSR arrays are backed by the page
// cache: an analysis touches only the pages it actually reads.
//
// mapSystem is also the decoder behind Read, which runs it over a heap
// copy of the stream. The byte order of the format is little-endian; on a
// big-endian host, or when the buffer is not 8-byte aligned, Map fails
// with ErrNotMappable and the caller falls back to Read, which then
// converts each section into a fresh host-order array instead of aliasing.
//
// Ownership: a mapped space holds a reference-counted mapping. Analyses
// that must not race an unmap pin it with Acquire/Release; Close is
// idempotent and defers the actual unmap until the last reference drops.
// Materialize promotes a mapped space to ordinary heap arrays for callers
// that outlive the mapping or mutate the arrays (copy-on-write, one copy).
package statespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// ErrNotMappable reports a buffer that cannot be zero-copy aliased on this
// host — a big-endian machine, or a buffer whose base address is not
// 8-byte aligned (mmap always is; ad-hoc sub-slices may not be). It marks
// structural unfitness, not corruption: the same bytes remain loadable
// through Read.
var ErrNotMappable = errors.New("statespace: buffer not zero-copy mappable on this host")

// hostLittleEndian reports whether the running host stores integers in the
// format's byte order, decided once at startup.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping tracks the lifetime of the externally owned buffer a mapped
// space aliases. Acquire pins the buffer for the duration of an analysis;
// Close marks the mapping dead and unmaps as soon as the last pin drops
// (immediately, when none is held). All methods are safe for concurrent
// use.
type mapping struct {
	mu     sync.Mutex
	refs   int
	closed bool
	unmap  func() error
}

func (m *mapping) acquire() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("statespace: Acquire on a closed mapped system")
	}
	m.refs++
	return nil
}

func (m *mapping) release() error {
	m.mu.Lock()
	if m.refs <= 0 {
		m.mu.Unlock()
		panic("statespace: Release without matching Acquire")
	}
	m.refs--
	var unmap func() error
	if m.closed && m.refs == 0 {
		unmap, m.unmap = m.unmap, nil
	}
	m.mu.Unlock()
	if unmap != nil {
		return unmap()
	}
	return nil
}

func (m *mapping) close() error {
	m.mu.Lock()
	m.closed = true
	var unmap func() error
	if m.refs == 0 {
		unmap, m.unmap = m.unmap, nil
	}
	m.mu.Unlock()
	if unmap != nil {
		return unmap()
	}
	return nil
}

// Mapped reports whether the space's arrays alias an external mapped
// buffer (loaded by Map) rather than ordinary heap memory.
func (sp *Space) Mapped() bool { return sp.mapped != nil }

// Acquire pins the mapped buffer backing the space so a concurrent Close
// cannot unmap it mid-analysis; every Acquire must be paired with a
// Release. On an unmapped space it is a no-op. It fails once the space has
// been closed.
func (sp *Space) Acquire() error {
	if sp.mapped == nil {
		return nil
	}
	return sp.mapped.acquire()
}

// Release undoes one Acquire. The last Release after a Close performs the
// deferred unmap (and returns its error).
func (sp *Space) Release() error {
	if sp.mapped == nil {
		return nil
	}
	return sp.mapped.release()
}

// Close releases the mapped buffer backing the space. It is idempotent and
// safe concurrently with pinned analyses: the unmap is deferred until the
// last Acquire is released. After Close the space's accessors must not be
// used (unpinned) — callers needing the data past Close use Materialize
// first. Close on an unmapped space is a no-op.
func (sp *Space) Close() error {
	if sp.mapped == nil {
		return nil
	}
	return sp.mapped.close()
}

// Materialize promotes a mapped space to ordinary heap arrays (one copy)
// and closes the mapping, so the space outlives the buffer and its arrays
// become safely mutable by owners that need that. It must not run
// concurrently with other users of the space. On an unmapped space it is a
// no-op.
func (sp *Space) Materialize() error {
	if sp.mapped == nil {
		return nil
	}
	sp.off = slices.Clone(sp.off)
	sp.succ = slices.Clone(sp.succ)
	sp.probs = sp.probs.clone()
	if sp.table != nil {
		sp.table = NewSortedDedup(slices.Clone(sp.table.Globals()))
	}
	m := sp.mapped
	sp.mapped = nil
	runtime.SetFinalizer(sp, nil)
	return m.close()
}

// mappedArrays is the outcome of mapSystem: the section payloads (nil
// when empty) plus the decoded legitimacy vector.
type mappedArrays struct {
	off     []int64
	succ    []int32
	probs   Probs
	legit   []bool
	globals []int64
}

// section returns the n little-endian values at data[at:]: aliased in
// place when alias is set (the caller has checked the host byte order), or
// converted into a fresh host-order slice.
func section[T uint8 | int32 | int64 | float64](data []byte, at, n int64, alias bool) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	size := int64(unsafe.Sizeof(T(0)))
	src := data[at : at+n*size]
	if !alias {
		out := make([]T, n)
		leCopy(bytesOf(out), src, int(size))
		return out, nil
	}
	p := unsafe.Pointer(unsafe.SliceData(src))
	if uintptr(p)%uintptr(size) != 0 {
		return nil, ErrNotMappable
	}
	return unsafe.Slice((*T)(p), n), nil
}

// mapSystem validates a format-v3 buffer whose header h has already been
// parsed and bound — section counts, padding, CRC-32C, CSR structure — and
// returns its arrays, aliasing data when alias is set and copying
// otherwise. It is the format's only decoder: Map and Read both end here,
// so they accept exactly the same byte strings. It touches the bytes only
// twice: once for the hardware-assisted checksum, once for validation
// scans.
//
// With trusted set, the O(bytes) passes — checksum and the array content
// validators — are skipped: the caller vouches that these exact bytes
// already passed a full validation (the spacecache keys that promise on
// the file's inode identity). Layout, counts and alignment are still
// checked, so a trusted load of the wrong-shaped buffer fails cleanly.
func mapSystem(data []byte, h serialHeader, trusted, alias bool) (mappedArrays, error) {
	var arr mappedArrays
	if alias && !hostLittleEndian {
		return arr, ErrNotMappable
	}
	l := h.layout()
	if need := l.end + 8; int64(len(data)) < need {
		return arr, fmt.Errorf("statespace: buffer of %d bytes truncated for a %d-byte serialized system", len(data), need)
	}
	type count struct {
		at, want int64
		name     string
	}
	counts := []count{{l.off, h.states + 1, "off"}, {l.succ, h.edges, "succ"}, {l.prob, h.edges, "prob"}}
	if !h.plain {
		counts = []count{counts[0], counts[1], {l.pal, h.pal, "pal"}, {l.code, h.edges, "code"}}
	}
	counts = append(counts, count{l.legit, h.states, "legit"})
	if h.kind == kindSubSpace {
		counts = append(counts, count{l.globals, h.states, "globals"})
	}
	for _, c := range counts {
		if got := int64(binary.LittleEndian.Uint64(data[c.at-8:])); got != c.want {
			return arr, fmt.Errorf("statespace: %s section has %d entries, want %d", c.name, got, c.want)
		}
	}

	succEnd, legitBytes := l.succ+h.edges*4, (h.states+7)/8
	if !trusted {
		// Integrity before structure: a corrupted file reports corruption,
		// not a confusing shape error.
		want := checksumParallel(data[:l.end])
		if got := binary.LittleEndian.Uint64(data[l.end:]); got != uint64(want) {
			return arr, fmt.Errorf("statespace: checksum mismatch (file %#x, computed %#x): corrupted cache file", got, want)
		}
		pads := [][]byte{data[succEnd : succEnd+pad8(h.edges*4)], data[l.legit+legitBytes : l.legit+legitBytes+pad8(legitBytes)]}
		if !h.plain {
			pads = append(pads, data[l.code+h.edges:l.legit-8])
		}
		for _, pad := range pads {
			for _, x := range pad {
				if x != 0 {
					return arr, fmt.Errorf("statespace: nonzero section padding")
				}
			}
		}
	}

	var err error
	if arr.off, err = section[int64](data, l.off, h.states+1, alias); err != nil {
		return arr, err
	}
	if arr.succ, err = section[int32](data, l.succ, h.edges, alias); err != nil {
		return arr, err
	}
	if h.plain {
		arr.probs.wide, err = section[float64](data, l.prob, h.edges, alias)
	} else if arr.probs.pal, err = section[float64](data, l.pal, h.pal, alias); err == nil {
		arr.probs.code, err = section[uint8](data, l.code, h.edges, alias)
	}
	if err != nil {
		return arr, err
	}
	if arr.legit, err = unpackBools(data[l.legit:l.legit+legitBytes], h.states); err != nil {
		return arr, err
	}
	if h.kind == kindSubSpace {
		if arr.globals, err = section[int64](data, l.globals, h.states, alias); err != nil {
			return arr, err
		}
	}

	if !trusted {
		if err := validateOffsets(h.states, h.edges, arr.off); err != nil {
			return arr, err
		}
		if err := validateSucc(h.states, arr.succ); err != nil {
			return arr, err
		}
		if err := validatePalette(arr.probs.pal); err != nil {
			return arr, err
		}
		if err := validateCodes(arr.probs.code, len(arr.probs.pal)); err != nil {
			return arr, err
		}
		if h.kind == kindSubSpace {
			if err := validateGlobals(h.states, h.total, arr.globals); err != nil {
				return arr, err
			}
		}
	}
	return arr, nil
}

// newSpace assembles a decoded or mapped system bound to (a, pol).
func newSpace(a protocol.Algorithm, pol scheduler.Policy, enc *protocol.Encoder, h serialHeader, arr mappedArrays, workers int) *Space {
	sp := &Space{
		Alg:    a,
		Pol:    pol,
		Enc:    enc,
		States: int(h.states),
		Legit:  arr.legit,
		off:    arr.off,
		succ:   arr.succ,
		probs:  arr.probs,
	}
	if h.kind == kindSpace {
		sp.Workers = resolveWorkers(workers, sp.States)
	} else {
		sp.Workers = resolveWorkers(workers, math.MaxInt)
		// A loaded closure never grows: the sealed binary-search table over
		// its ascending Globals avoids both the dense O(range) array and the
		// per-entry hash insertion of a growable dedup (a Builder
		// re-adopting the closure builds its own).
		sp.table = NewSortedDedup(arr.globals)
	}
	return sp
}

// Map interprets data — the complete bytes of a system serialized by
// WriteTo, typically a read-only mmap of a cache file — as a Space whose
// arrays alias data in place (zero-copy; only the bit-packed legitimacy
// vector is decoded). It accepts the same bytes as Read and produces
// bit-equal arrays. ErrNotMappable (big-endian host, misaligned buffer)
// means the caller should fall back to Read; any other error means the
// bytes themselves are unusable. workers and maxStates are Read's.
//
// unmap, when non-nil, is invoked exactly once — by Close, the final
// Release after a Close, Materialize, or a GC finalizer safety net — when
// the returned space is done with the buffer. On error, ownership of the
// buffer stays with the caller and unmap is not invoked.
func Map(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, unmap func() error) (*Space, error) {
	return mapSpace(data, a, pol, workers, maxStates, unmap, false)
}

// MapTrusted is Map minus the O(bytes) integrity passes (checksum,
// padding scans, CSR content validators). The caller asserts that these
// exact bytes already passed a full Map or Read validation and have not
// changed since — the spacecache keys that promise on the backing file's
// (device, inode, size, mtime) identity, which every rewrite path
// invalidates via rename. Layout, counts and alignment are still checked.
func MapTrusted(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, unmap func() error) (*Space, error) {
	return mapSpace(data, a, pol, workers, maxStates, unmap, true)
}

func mapSpace(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, unmap func() error, trusted bool) (*Space, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("statespace: buffer of %d bytes too short for a serialized space", len(data))
	}
	h, err := parseHeader([headerSize]byte(data[0:headerSize]))
	if err != nil {
		return nil, err
	}
	enc, err := bind(h, a, maxStates)
	if err != nil {
		return nil, err
	}
	arr, err := mapSystem(data, h, trusted, true)
	if err != nil {
		return nil, err
	}
	sp := newSpace(a, pol, enc, h, arr, workers)
	sp.mapped = &mapping{unmap: unmap}
	if unmap != nil {
		// Safety net for owners that drop the space without closing it
		// (one-shot experiment paths): reclaim the mapping when the space
		// becomes unreachable. Explicit Close/Materialize clears this.
		runtime.SetFinalizer(sp, func(sp *Space) { sp.Close() })
	}
	return sp, nil
}
