// Loading serialized transition systems. Map is the format's one loader:
// given the complete bytes of a system serialized by WriteTo — in
// practice a read-only mmap of a cache file (internal/spacecache), or the
// file read into memory — it validates the header, section counts,
// padding and CRC-32C once and returns the Space. On a little-endian host
// with an 8-aligned buffer (every mmap is) the int64/int32/float64/uint8
// section payloads alias the buffer in place via unsafe.Slice: format v3
// puts every payload on an 8-byte boundary relative to the buffer start,
// so the aliased slices are well-aligned by construction. Otherwise — a
// big-endian host, a misaligned buffer — each section is converted into a
// fresh host-order array, bit-equal to the aliased one. Either way only
// the bit-packed legitimacy vector is decoded (it cannot alias []bool; at
// one bit per state it is the cheapest section by far). An aliased space
// is backed by whatever backs the buffer: for an mmap, the page cache
// rather than the heap.
//
// Ownership: a space whose arrays alias a buffer that came with a release
// function (an mmap's unmap) holds a reference-counted mapping and reports
// Mapped(). Analyses that must not race an unmap pin it with
// Acquire/Release; Close is idempotent and defers the actual unmap until
// the last reference drops.
package statespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

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

// Mapped reports whether the space's arrays alias a buffer Map was handed
// with a release function (an mmap), rather than ordinary heap memory.
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
// used unpinned. Close on an unmapped space is a no-op.
func (sp *Space) Close() error {
	if sp.mapped == nil {
		return nil
	}
	return sp.mapped.close()
}

// section returns the n little-endian values at data[at:]: aliased in
// place when alias is set (the caller has checked the host byte order and
// the buffer's alignment), or converted into a fresh host-order slice.
func section[T uint8 | int32 | int64 | float64](data []byte, at, n int64, alias bool) []T {
	if n == 0 {
		return nil
	}
	size := int64(unsafe.Sizeof(T(0)))
	src := data[at : at+n*size]
	if alias {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(src))), n)
	}
	out := make([]T, n)
	leCopy(bytesOf(out), src, int(size))
	return out
}

// Map loads the system serialized by WriteTo in data — a full space or a
// seed-set closure, as its header says — and binds it to the given
// algorithm and policy (which the format deliberately does not store:
// they are code, not data). workers sizes the analysis pools of the
// loaded space (0 = NumCPU) and maxStates caps its state count exactly as
// Options.MaxStates caps a fresh exploration (0 = DefaultMaxStates). The
// header and the cap are checked before any section is touched. Bytes
// after the trailer are ignored.
//
// With trusted set, the O(bytes) passes — checksum, padding scans and the
// array content validators — are skipped: the caller vouches that these
// exact bytes already passed a full load and have not changed since (the
// spacecache keys that promise on the file's (device, inode, size, mtime)
// identity, which every rewrite path invalidates via rename). Layout and
// counts are still checked, so a trusted load of a wrong-shaped buffer
// fails cleanly.
//
// Map takes ownership of unmap (nil when data needs no release) and runs
// it exactly once: at once when the load fails or the arrays are copies,
// and otherwise — the returned space is Mapped — by Close, the final
// Release after a Close, or a GC finalizer safety net.
func Map(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, trusted bool, unmap func() error) (*Space, error) {
	alias := hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%8 == 0
	sp, err := decode(data, a, pol, workers, maxStates, trusted, alias)
	if err == nil && alias && unmap != nil {
		sp.mapped = &mapping{unmap: unmap}
		// Safety net for owners that drop the space without closing it
		// (one-shot experiment paths): reclaim the mapping when the space
		// becomes unreachable. An explicit Close clears it.
		runtime.SetFinalizer(sp, func(sp *Space) { sp.Close() })
		return sp, nil
	}
	if unmap != nil {
		err = errors.Join(err, unmap()) // nothing aliases the buffer
	}
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// decode is Map's parse, bind and validation, aliasing data when alias is
// set and copying it otherwise. It touches the bytes only twice: once for
// the hardware-assisted checksum, once for the validation scans.
func decode(data []byte, a protocol.Algorithm, pol scheduler.Policy, workers int, maxStates int64, trusted, alias bool) (*Space, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("statespace: buffer of %d bytes too short for a serialized space", len(data))
	}
	h, err := parseHeader([headerSize]byte(data))
	if err != nil {
		return nil, err
	}
	enc, err := bind(h, a, maxStates)
	if err != nil {
		return nil, err
	}
	l := h.layout()
	if need := l.end + 8; int64(len(data)) < need {
		return nil, fmt.Errorf("statespace: buffer of %d bytes truncated for a %d-byte serialized system", len(data), need)
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
			return nil, fmt.Errorf("statespace: %s section has %d entries, want %d", c.name, got, c.want)
		}
	}

	succEnd, legitBytes := l.succ+h.edges*4, (h.states+7)/8
	if !trusted {
		// Integrity before structure: a corrupted file reports corruption,
		// not a confusing shape error.
		want := crc32.Checksum(data[:l.end], crcTable)
		if got := binary.LittleEndian.Uint64(data[l.end:]); got != uint64(want) {
			return nil, fmt.Errorf("statespace: checksum mismatch (file %#x, computed %#x): corrupted cache file", got, want)
		}
		pads := [][]byte{data[succEnd : succEnd+pad8(h.edges*4)], data[l.legit+legitBytes : l.legit+legitBytes+pad8(legitBytes)]}
		if !h.plain {
			pads = append(pads, data[l.code+h.edges:l.legit-8])
		}
		for _, pad := range pads {
			for _, x := range pad {
				if x != 0 {
					return nil, fmt.Errorf("statespace: nonzero section padding")
				}
			}
		}
	}

	sp := &Space{
		Alg:    a,
		Pol:    pol,
		Enc:    enc,
		States: int(h.states),
		off:    section[int64](data, l.off, h.states+1, alias),
		succ:   section[int32](data, l.succ, h.edges, alias),
	}
	if h.plain {
		sp.probs.wide = section[float64](data, l.prob, h.edges, alias)
	} else {
		sp.probs.pal = section[float64](data, l.pal, h.pal, alias)
		sp.probs.code = section[uint8](data, l.code, h.edges, alias)
	}
	if sp.Legit, err = unpackBools(data[l.legit:l.legit+legitBytes], h.states); err != nil {
		return nil, err
	}
	var globals []int64
	if h.kind == kindSubSpace {
		globals = section[int64](data, l.globals, h.states, alias)
	}

	if !trusted {
		if err := validateOffsets(h.states, h.edges, sp.off); err != nil {
			return nil, err
		}
		if err := validateSucc(h.states, sp.succ); err != nil {
			return nil, err
		}
		if err := validatePalette(sp.probs.pal); err != nil {
			return nil, err
		}
		if err := validateCodes(sp.probs.code, len(sp.probs.pal)); err != nil {
			return nil, err
		}
		if h.kind == kindSubSpace {
			if err := validateGlobals(h.states, h.total, globals); err != nil {
				return nil, err
			}
		}
	}

	if h.kind == kindSpace {
		sp.Workers = resolveWorkers(workers, sp.States)
	} else {
		sp.Workers = resolveWorkers(workers, math.MaxInt)
		// A loaded closure never grows: LocalIndex binary-searches its
		// ascending globals, with neither a dense O(range) array nor a
		// hash table (a Builder re-adopting the closure builds its own).
		sp.globals = globals
		if globals == nil { // a closure of no states: empty, not the full range
			sp.globals = []int64{}
		}
	}
	return sp, nil
}
