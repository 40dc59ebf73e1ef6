// On-disk serialization of explored transition systems. A Space is, at
// rest, a few flat arrays (the CSR row offsets and successors, the edge
// probabilities as a palette plus one code per edge — or, for an alphabet
// beyond 256 values, one float64 per edge — and the legitimacy vector)
// and, for a seed-set closure, the Globals vector that ties local ids back
// to the mixed-radix index range. WriteTo streams them as a versioned
// little-endian binary: a fixed 40-byte header (magic, format version,
// kind, probability layout, dimensions, palette length), length-prefixed
// sections in a fixed order, and a trailing checksum of everything before
// it:
//
//	off     (states+1) × int64
//	succ    edges × int32
//	pal     palette × float64, ascending   } coded layout
//	code    edges × uint8                  }
//	prob    edges × float64                  plain layout
//	legit   states bits
//	globals states × int64                   closures only
//
// Every section payload starts on an 8-byte boundary (the header, counts
// and int64/float64 payloads are naturally 8-wide; the succ, code and
// legit payloads are zero-padded up to it), so the section layout is a
// pure function of the header and every payload of an 8-aligned buffer
// except the bit-packed legit can be aliased in place. The loader rejects
// nonzero padding, spare legitimacy bits, unsorted palettes and codes
// beyond the palette, keeping the byte stream a *bijection* of the
// explored arrays: an accepted stream re-serializes bit-identically. The
// checksum is CRC-32C (Castagnoli), hardware-accelerated on the hosts that
// matter, stored as the low 32 bits of the 8-byte little-endian trailer.
//
// There is one loader, Map (mapped.go): it takes the complete stream as
// one byte buffer — an mmap or the file read into memory — and aliases
// the buffer where the host and the alignment allow, copying otherwise.
//
// The format stores only what exploration computed — never the algorithm
// or policy, which are pure code. The loader therefore binds the arrays to
// (algorithm, policy) objects supplied by the caller and validates the
// dimensions against the algorithm's own encoder, so a loaded system is
// indistinguishable from a freshly built one (bit-equal arrays, identical
// analyses). Cache keying — deciding *which* file belongs to which
// (algorithm, instance, policy, seed set) — lives one layer up, in
// internal/spacecache.
package statespace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"weakstab/internal/protocol"
)

// SerialVersion is the on-disk format version written by WriteTo and
// required by Map. Bump it on any incompatible layout change;
// stale cache files then fail the version gate and are rebuilt. Version 2
// introduced 8-byte section alignment and the CRC-32C trailer, version 3
// the palette-coded probabilities.
const SerialVersion = 3

// headerSize is the byte length of the fixed header.
const headerSize = 40

// serialMagic opens every serialized system ("WSSC": weakstab space cache).
var serialMagic = [4]byte{'W', 'S', 'S', 'C'}

// Kind discriminates the two layouts in the header.
const (
	kindSpace    = 0 // full index range: States == Enc.Total()
	kindSubSpace = 1 // seed-set closure: + Globals section
)

// The probability layouts of the header (Probs).
const (
	probsCoded = 0 // pal + code sections
	probsPlain = 1 // prob section
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// serialChunk is the byte size of the buffer the legitimacy vector is
// bit-packed through on write.
const serialChunk = 1 << 13

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// WriteTo implements io.WriterTo: it streams the space in the versioned
// binary cache format, with a Globals section when the space is a seed-set
// closure. The byte stream is a pure function of the explored arrays
// (worker counts, cached reverse views and the algorithm/policy objects
// are not part of it).
func (sp *Space) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}

	var hdr [headerSize]byte
	copy(hdr[0:4], serialMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], SerialVersion)
	if sp.globals != nil {
		hdr[6] = kindSubSpace
	}
	coded := sp.probs.Coded()
	if !coded {
		hdr[7] = probsPlain
	}
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(sp.States))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(sp.succ)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(sp.Enc.Total()))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(sp.probs.Palette())))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	err := writeSection(cw, sp.off)
	if err == nil {
		err = writeSection(cw, sp.succ)
	}
	if err == nil && coded {
		if err = writeSection(cw, sp.probs.pal); err == nil {
			err = writeSection(cw, sp.probs.code)
		}
	} else if err == nil {
		err = writeSection(cw, sp.probs.wide)
	}
	if err == nil {
		err = writeBools(cw, sp.Legit)
	}
	if err == nil && sp.globals != nil {
		err = writeSection(cw, sp.globals)
	}
	if err != nil {
		return cw.n, err
	}

	// Trailer: CRC-32C of everything above in the low 32 bits of an 8-byte
	// word (so the total file length stays 8-aligned), written outside the
	// checksum.
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], uint64(cw.crc))
	if _, err := bw.Write(sum[:]); err != nil {
		return cw.n, err
	}
	return cw.n + 8, bw.Flush()
}

func writeCount(cw *crcWriter, n int) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	_, err := cw.Write(b[:])
	return err
}

// pad8 returns the number of zero bytes that pad a payload of the given
// size to the next 8-byte boundary.
func pad8(size int64) int64 { return -size & 7 }

// writePad zero-pads a section payload of size bytes to the next 8-byte
// boundary, keeping the following section 8-aligned.
func writePad(cw *crcWriter, size int64) error {
	var zeros [7]byte
	_, err := cw.Write(zeros[:pad8(size)])
	return err
}

// bytesOf views a numeric slice as its raw host-order bytes.
func bytesOf[T uint8 | int32 | int64 | float64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(v[0])))
}

// leCopy copies size-byte words from src to dst, converting between
// little-endian and the host byte order. The conversion is its own
// inverse, so it serves writes (host → file) and decoding reads (file →
// host) alike; on a little-endian host it is a plain copy.
func leCopy(dst, src []byte, size int) {
	if size == 1 {
		copy(dst, src)
		return
	}
	for i := 0; i+size <= len(src); i += size {
		if size == 4 {
			binary.NativeEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(src[i:]))
		} else {
			binary.NativeEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:]))
		}
	}
}

// writeSection writes a length-prefixed little-endian numeric section,
// zero-padded to the next 8-byte boundary. On a little-endian host the
// array's own bytes are the payload.
func writeSection[T uint8 | int32 | int64 | float64](cw *crcWriter, v []T) error {
	if err := writeCount(cw, len(v)); err != nil {
		return err
	}
	raw := bytesOf(v)
	if !hostLittleEndian {
		le := make([]byte, len(raw))
		leCopy(le, raw, int(unsafe.Sizeof(v[0])))
		raw = le
	}
	if _, err := cw.Write(raw); err != nil {
		return err
	}
	return writePad(cw, int64(len(raw)))
}

// writeBools bit-packs the legitimacy vector, eight states per byte, LSB
// first, spare bits of the final byte zero.
func writeBools(cw *crcWriter, v []bool) error {
	if err := writeCount(cw, len(v)); err != nil {
		return err
	}
	var buf [serialChunk]byte
	n := len(v)
	for len(v) > 0 {
		c := min(len(v), serialChunk*8)
		packed := buf[:(c+7)/8]
		clear(packed)
		for i, b := range v[:c] {
			if b {
				packed[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := cw.Write(packed); err != nil {
			return err
		}
		v = v[c:]
	}
	return writePad(cw, (int64(n)+7)/8)
}

// serialHeader is the decoded fixed header of a serialized system.
type serialHeader struct {
	kind   byte
	plain  bool // probsPlain: a prob section instead of pal + code
	states int64
	edges  int64
	total  int64
	pal    int64 // palette length (coded layout)
}

// parseHeader decodes and validates the fixed header.
func parseHeader(hdr [headerSize]byte) (serialHeader, error) {
	if [4]byte(hdr[0:4]) != serialMagic {
		return serialHeader{}, fmt.Errorf("statespace: bad magic %q (not a serialized space)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != SerialVersion {
		return serialHeader{}, fmt.Errorf("statespace: format version %d, want %d", v, SerialVersion)
	}
	h := serialHeader{
		kind:   hdr[6],
		plain:  hdr[7] == probsPlain,
		states: int64(binary.LittleEndian.Uint64(hdr[8:16])),
		edges:  int64(binary.LittleEndian.Uint64(hdr[16:24])),
		total:  int64(binary.LittleEndian.Uint64(hdr[24:32])),
		pal:    int64(binary.LittleEndian.Uint64(hdr[32:40])),
	}
	if h.kind != kindSpace && h.kind != kindSubSpace {
		return serialHeader{}, fmt.Errorf("statespace: unknown serialized kind %d", h.kind)
	}
	// A plain layout holds at least one edge and no palette (an empty
	// space is coded), so each space has exactly one encoding.
	if hdr[7] > probsPlain || h.pal < 0 || h.pal > maxPalette || (h.plain && (h.pal != 0 || h.edges == 0)) {
		return serialHeader{}, fmt.Errorf("statespace: bad probability layout %d with a %d-value palette", hdr[7], h.pal)
	}
	// Plausibility bounds: states fit the int32 id range, a merged CSR can
	// never hold more than states² distinct transitions, and the section
	// layout computed from the header cannot overflow int64.
	if h.states < 0 || h.states > math.MaxInt32 || h.edges < 0 || h.edges > h.states*h.states ||
		h.edges > math.MaxInt64/16 || h.total < h.states {
		return serialHeader{}, fmt.Errorf("statespace: implausible dimensions (states=%d edges=%d total=%d)", h.states, h.edges, h.total)
	}
	return h, nil
}

// layout is where each section payload of a format-v3 stream starts: a
// pure function of the header, since every count is 8 bytes and every
// payload is zero-padded to an 8-byte boundary. pal and code are zero in
// the plain layout, prob in the coded one.
type layout struct {
	off, succ, pal, code, prob, legit, globals int64
	end                                        int64 // the CRC trailer; the stream is end+8 bytes
}

func (h serialHeader) layout() layout {
	var l layout
	l.off = headerSize + 8
	l.succ = l.off + (h.states+1)*8 + 8
	next := l.succ + h.edges*4 + pad8(h.edges*4) + 8
	if h.plain {
		l.prob = next
		next = l.prob + h.edges*8 + 8
	} else {
		l.pal = next
		l.code = l.pal + h.pal*8 + 8
		next = l.code + h.edges + pad8(h.edges) + 8
	}
	l.legit = next
	legitBytes := (h.states + 7) / 8
	l.end = l.legit + legitBytes + pad8(legitBytes)
	if h.kind == kindSubSpace {
		l.globals = l.end + 8
		l.end = l.globals + h.states*8
	}
	return l
}

// bind checks a header against the instance the loader binds it to and
// against the state cap, before any section is touched: a full space must
// span a's whole index range, and a closure must live inside it. The cap
// is Options.MaxStates' (0 = DefaultMaxStates), so an oversized cached
// system costs a header parse, not a decode.
func bind(h serialHeader, a protocol.Algorithm, maxStates int64) (*protocol.Encoder, error) {
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	if h.total != enc.Total() || (h.kind == kindSpace && h.states != h.total) {
		return nil, fmt.Errorf("statespace: serialized system has %d of %d configurations, not one of the %d of %s",
			h.states, h.total, enc.Total(), a.Name())
	}
	if h.states > StateCap(maxStates) {
		return nil, fmt.Errorf("statespace: serialized system has %d states, beyond the %d-state cap", h.states, StateCap(maxStates))
	}
	return enc, nil
}

// unpackBools decodes a bit-packed section payload (LSB first) into a
// fresh bool slice of n elements, rejecting nonzero spare bits in the
// final byte: they carry no information, so accepted streams stay
// bijective with the arrays.
func unpackBools(packed []byte, n int64) ([]bool, error) {
	out := make([]bool, n)
	// Whole bytes expand through a precomputed 8-bool pattern per byte
	// value — one table copy instead of eight shift-and-test iterations.
	for i := int64(0); i+1 <= n/8; i++ {
		copy(out[i*8:i*8+8], boolPatterns[packed[i]][:])
	}
	for i := n - n%8; i < n; i++ {
		out[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	if n%8 != 0 && packed[(n-1)/8]>>(n%8) != 0 {
		return nil, fmt.Errorf("statespace: nonzero spare bits in legit section")
	}
	return out, nil
}

// boolPatterns[b] is the 8 bools packed into byte value b, LSB first.
var boolPatterns = func() (t [256][8]bool) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b][i] = b&(1<<i) != 0
		}
	}
	return
}()

// validateOffsets checks the CSR row-offset invariants: exactly states+1
// entries spanning [0, edges] monotonically.
func validateOffsets(states, edges int64, off []int64) error {
	if int64(len(off)) != states+1 {
		return fmt.Errorf("statespace: off section has %d entries for %d states", len(off), states)
	}
	if off[0] != 0 || off[states] != edges {
		return fmt.Errorf("statespace: CSR offsets span [%d,%d], want [0,%d]", off[0], off[states], edges)
	}
	for s := int64(0); s < states; s++ {
		if off[s] > off[s+1] {
			return fmt.Errorf("statespace: CSR offsets not monotone at state %d", s)
		}
	}
	return nil
}

// validateSucc checks that every successor index lies in [0, states).
func validateSucc(states int64, succ []int32) error {
	if len(succ) == 0 {
		return nil
	}
	// Hot on every load: reduce to the maximum successor as an unsigned
	// value (a negative one wraps huge; states is capped at MaxInt32 by the
	// header check, so one unsigned bound covers both violations), and
	// rescan for the exact culprit only on failure.
	if int64(maxSucc(succ)) < states {
		return nil
	}
	for _, t := range succ {
		if int64(t) < 0 || int64(t) >= states {
			return fmt.Errorf("statespace: successor %d outside [0,%d)", t, states)
		}
	}
	return fmt.Errorf("statespace: successor outside [0,%d)", states)
}

// maxSucc returns the maximum of succ reinterpreted as uint32s, with four
// independent accumulators for instruction-level parallelism.
func maxSucc(succ []int32) uint32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(succ); i += 4 {
		m0 = max(m0, uint32(succ[i]))
		m1 = max(m1, uint32(succ[i+1]))
		m2 = max(m2, uint32(succ[i+2]))
		m3 = max(m3, uint32(succ[i+3]))
	}
	for ; i < len(succ); i++ {
		m0 = max(m0, uint32(succ[i]))
	}
	return max(m0, m1, m2, m3)
}

// validatePalette checks that a palette is strictly ascending in palCmp
// order, the order a built space's palette has.
func validatePalette(pal []float64) error {
	for i := 1; i < len(pal); i++ {
		if palCmp(pal[i-1], pal[i]) >= 0 {
			return fmt.Errorf("statespace: palette not strictly ascending at entry %d", i)
		}
	}
	return nil
}

// validateCodes checks that every code indexes the palette of n values.
func validateCodes(code []uint8, n int) error {
	if len(code) > 0 && int(slices.Max(code)) >= n {
		return fmt.Errorf("statespace: code %d outside a %d-value palette", slices.Max(code), n)
	}
	return nil
}

// validateGlobals checks a closure's Globals section against the header
// it arrived with: exactly one global per state — an explicit
// length-vs-state-count check the section's own length prefix cannot vouch
// for — strictly ascending within the instance's [0, total) index range.
func validateGlobals(states, total int64, globals []int64) error {
	if int64(len(globals)) != states {
		return fmt.Errorf("statespace: globals section has %d entries for %d states", len(globals), states)
	}
	prev := int64(-1)
	for _, g := range globals {
		if g <= prev || g >= total {
			return fmt.Errorf("statespace: globals not strictly ascending within [0,%d)", total)
		}
		prev = g
	}
	return nil
}
