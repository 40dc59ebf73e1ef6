package statespace

// Tests of the zero-copy mapped loader: bit-equal parity with Read, the
// big-endian copy path, the fallback matrix (misaligned buffers, truncation,
// corruption, count/structure inconsistencies), and the Acquire/Release/
// Close lifecycle — including Close racing in-flight readers, which the
// race-enabled CI job runs under the race detector.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
)

func testSpaceBytes(t *testing.T) (*Space, *tokenring.Algorithm, []byte) {
	t.Helper()
	a, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Build(a, scheduler.CentralPolicy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return sp, a, buf.Bytes()
}

func testSubSpaceBytes(t *testing.T) (*Space, *tokenring.Algorithm, []byte) {
	t.Helper()
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := BuildFromContext(t.Context(), a, scheduler.CentralPolicy{}, []int64{0, 1, 7, 13}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ss.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return ss, a, buf.Bytes()
}

// copyAt returns a copy of b whose base address is ≡ rem (mod 8).
func copyAt(b []byte, rem uintptr) []byte {
	buf := make([]byte, len(b)+8)
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	off := int((rem - base%8 + 8) % 8)
	dst := buf[off : off+len(b)]
	copy(dst, b)
	return dst
}

// refreshCRC rewrites the trailer of a deliberately edited serialization
// so the corruption under test is reached, not masked by the checksum.
func refreshCRC(b []byte) {
	binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(crc32.Checksum(b[:len(b)-8], crcTable)))
}

// TestSerialAlignment pins the format-v2 layout guarantee the mapped
// loader relies on: every section payload offset, and the total length,
// is a multiple of 8.
func TestSerialAlignment(t *testing.T) {
	_, _, data := testSubSpaceBytes(t)
	if len(data)%8 != 0 {
		t.Errorf("serialized length %d not a multiple of 8", len(data))
	}
	h, err := parseHeader([headerSize]byte(data[:headerSize]))
	if err != nil {
		t.Fatal(err)
	}
	if h.edges%2 == 0 {
		t.Logf("note: even edge count %d exercises no succ padding", h.edges)
	}
	offAt := int64(headerSize + 8)
	succAt := offAt + (h.states+1)*8 + 8
	palAt := succAt + h.edges*4 + pad8(h.edges*4) + 8
	codeAt := palAt + h.pal*8 + 8
	legitAt := codeAt + h.edges + pad8(h.edges) + 8
	for _, at := range []int64{offAt, succAt, palAt, codeAt, legitAt} {
		if at%8 != 0 {
			t.Errorf("section payload at %d not 8-aligned", at)
		}
	}
}

func TestMapSpaceParity(t *testing.T) {
	sp, a, data := testSpaceBytes(t)
	mapped, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy{}, 1, 0, nil)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !mapped.Mapped() {
		t.Fatal("Map result not marked mapped")
	}
	decoded, err := Read(bytes.NewReader(data), a, scheduler.CentralPolicy{}, 1, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, got := range []*Space{mapped, decoded} {
		if got.States != sp.States || !reflect.DeepEqual(got.Legit, sp.Legit) {
			t.Fatalf("loaded space differs in states/legitimacy")
		}
		off, succ, prob := got.CSR()
		wantOff, wantSucc, wantProb := sp.CSR()
		if !reflect.DeepEqual(off, wantOff) || !reflect.DeepEqual(succ, wantSucc) || !reflect.DeepEqual(prob, wantProb) {
			t.Fatalf("loaded CSR differs from built CSR")
		}
	}
	// The mapped system re-serializes to the exact input bytes.
	var out bytes.Buffer
	if _, err := mapped.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("mapped space re-serialization differs from its input")
	}
}

func TestMapSubSpaceParity(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	mapped, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy{}, 1, 0, nil)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	decoded, err := Read(bytes.NewReader(data), a, scheduler.CentralPolicy{}, 1, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for _, got := range []*Space{mapped, decoded} {
		if got.States != ss.States || !reflect.DeepEqual(got.Legit, ss.Legit) {
			t.Fatal("loaded subspace differs in states/legitimacy")
		}
		off, succ, prob := got.CSR()
		wantOff, wantSucc, wantProb := ss.CSR()
		if !reflect.DeepEqual(off, wantOff) || !reflect.DeepEqual(succ, wantSucc) || !reflect.DeepEqual(prob, wantProb) {
			t.Fatal("loaded CSR differs from built CSR")
		}
		if !reflect.DeepEqual(got.Globals(), ss.Globals()) {
			t.Fatal("loaded globals differ")
		}
	}
	// The sealed table binary-searches the aliased globals.
	for s := 0; s < ss.States; s++ {
		if got := mapped.LocalIndex(ss.GlobalIndex(s)); got != int32(s) {
			t.Fatalf("LocalIndex(%d) = %d, want %d", ss.GlobalIndex(s), got, s)
		}
	}
	if mapped.LocalIndex(ss.TotalConfigs()-1) != -1 && ss.LocalIndex(ss.TotalConfigs()-1) == -1 {
		t.Fatal("mapped table found an undiscovered global")
	}
}

// TestMapMisalignedBuffer covers the fallback matrix's misalignment row:
// the same bytes at a non-8-aligned base are refused with ErrNotMappable
// (not corruption) and remain loadable by the decode path.
func TestMapMisalignedBuffer(t *testing.T) {
	_, a, data := testSpaceBytes(t)
	for rem := uintptr(1); rem < 8; rem++ {
		mis := copyAt(data, rem)
		_, err := Map(mis, a, scheduler.CentralPolicy{}, 1, 0, nil)
		if !errors.Is(err, ErrNotMappable) {
			t.Fatalf("base%%8=%d: Map err = %v, want ErrNotMappable", rem, err)
		}
		if _, err := Read(bytes.NewReader(mis), a, scheduler.CentralPolicy{}, 1, 0); err != nil {
			t.Fatalf("base%%8=%d: decode fallback failed: %v", rem, err)
		}
	}
}

// TestMapTruncatedTail covers truncation behind a valid header: every
// prefix must fail cleanly, never panic, never succeed.
func TestMapTruncatedTail(t *testing.T) {
	_, a, data := testSubSpaceBytes(t)
	for _, n := range []int{0, 16, 32, 40, len(data) / 2, len(data) - 9, len(data) - 8, len(data) - 1} {
		if _, err := Map(copyAt(data[:n], 0), a, scheduler.CentralPolicy{}, 1, 0, nil); err == nil {
			t.Fatalf("Map accepted a %d-byte prefix of %d bytes", n, len(data))
		}
	}
}

func TestMapCorruptPayload(t *testing.T) {
	_, a, data := testSpaceBytes(t)
	bad := copyAt(data, 0)
	bad[64] ^= 0x40
	_, err := Map(bad, a, scheduler.CentralPolicy{}, 1, 0, nil)
	if err == nil || errors.Is(err, ErrNotMappable) {
		t.Fatalf("corrupted payload: err = %v, want checksum mismatch", err)
	}
}

// TestMapGlobalsConsistency covers the explicit Globals-vs-state-count and
// strict-ascent checks shared by the decode and mapped paths, with the CRC
// refreshed so the structural validation itself is what rejects.
func TestMapGlobalsConsistency(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	globCount := len(data) - 8 - ss.States*8 - 8

	t.Run("count-mismatch", func(t *testing.T) {
		bad := copyAt(data, 0)
		binary.LittleEndian.PutUint64(bad[globCount:], uint64(ss.States-1))
		refreshCRC(bad)
		if _, err := Map(bad, a, scheduler.CentralPolicy{}, 1, 0, nil); err == nil {
			t.Fatal("Map accepted a globals count != state count")
		}
		if _, err := Read(bytes.NewReader(bad), a, scheduler.CentralPolicy{}, 1, 0); err == nil {
			t.Fatal("Read accepted a globals count != state count")
		}
	})

	t.Run("not-ascending", func(t *testing.T) {
		bad := copyAt(data, 0)
		first := globCount + 8
		// Swap the first two globals: counts and range stay valid, order breaks.
		g0 := binary.LittleEndian.Uint64(bad[first:])
		g1 := binary.LittleEndian.Uint64(bad[first+8:])
		binary.LittleEndian.PutUint64(bad[first:], g1)
		binary.LittleEndian.PutUint64(bad[first+8:], g0)
		refreshCRC(bad)
		if _, err := Map(bad, a, scheduler.CentralPolicy{}, 1, 0, nil); err == nil {
			t.Fatal("Map accepted non-ascending globals")
		}
		if _, err := Read(bytes.NewReader(bad), a, scheduler.CentralPolicy{}, 1, 0); err == nil {
			t.Fatal("Read accepted non-ascending globals")
		}
	})

	t.Run("nonzero-padding", func(t *testing.T) {
		h, err := parseHeader([headerSize]byte(data[:headerSize]))
		if err != nil {
			t.Fatal(err)
		}
		if pad8(h.edges*4) == 0 {
			t.Skip("even edge count: no succ padding to corrupt")
		}
		bad := copyAt(data, 0)
		succPadAt := h.layout().succ + h.edges*4
		bad[succPadAt] = 0xff
		refreshCRC(bad)
		if _, err := Map(bad, a, scheduler.CentralPolicy{}, 1, 0, nil); err == nil {
			t.Fatal("Map accepted nonzero section padding")
		}
		if _, err := Read(bytes.NewReader(bad), a, scheduler.CentralPolicy{}, 1, 0); err == nil {
			t.Fatal("Read accepted nonzero section padding")
		}
	})
}

// TestMapPaletteConsistency: a stream whose checksum holds but whose
// palette is out of order, whose codes index past the palette, or whose
// header declares a palette no layout allows is rejected by both readers.
func TestMapPaletteConsistency(t *testing.T) {
	_, a, data := testSpaceBytes(t)
	h, err := parseHeader([headerSize]byte(data[:headerSize]))
	if err != nil {
		t.Fatal(err)
	}
	l := h.layout()
	if h.plain || h.pal < 2 || h.edges == 0 {
		t.Fatalf("fixture has layout plain=%v with %d palette values and %d edges", h.plain, h.pal, h.edges)
	}
	for name, mutate := range map[string]func(b []byte){
		"code-outside-palette": func(b []byte) { b[l.code] = uint8(h.pal) },
		"palette-unsorted": func(b []byte) {
			p0 := slices.Clone(b[l.pal : l.pal+8])
			copy(b[l.pal:], b[l.pal+8:l.pal+16])
			copy(b[l.pal+8:], p0)
		},
		"palette-too-long":   func(b []byte) { binary.LittleEndian.PutUint64(b[32:40], maxPalette+1) },
		"plain-with-palette": func(b []byte) { b[7] = probsPlain },
		"unknown-layout":     func(b []byte) { b[7] = probsPlain + 1 },
	} {
		bad := copyAt(data, 0)
		mutate(bad)
		refreshCRC(bad)
		if _, err := Map(bad, a, scheduler.CentralPolicy{}, 1, 0, nil); err == nil {
			t.Errorf("%s: Map accepted the stream", name)
		}
		if _, err := Read(bytes.NewReader(bad), a, scheduler.CentralPolicy{}, 1, 0); err == nil {
			t.Errorf("%s: Read accepted the stream", name)
		}
	}
}

// TestMappingLifecycle pins the ownership contract: Close is idempotent,
// defers the unmap to the last Release, and refuses new Acquires.
func TestMappingLifecycle(t *testing.T) {
	_, a, data := testSpaceBytes(t)
	unmapped := 0
	sp, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy{}, 1, 0, func() error {
		unmapped++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if unmapped != 0 {
		t.Fatal("Close unmapped while a reference was held")
	}
	if err := sp.Acquire(); err == nil {
		t.Fatal("Acquire succeeded after Close")
	}
	if err := sp.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if err := sp.Release(); err != nil {
		t.Fatal(err)
	}
	if unmapped != 1 {
		t.Fatalf("unmap ran %d times, want exactly once at the last Release", unmapped)
	}
}

// TestMaterialize promotes a mapped subspace to heap arrays; the unmap
// hook scribbles over the buffer, so any surviving alias would corrupt the
// comparison.
func TestMaterialize(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	buf := copyAt(data, 0)
	mapped, err := Map(buf, a, scheduler.CentralPolicy{}, 1, 0, func() error {
		clear(buf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Materialize(); err != nil {
		t.Fatal(err)
	}
	if mapped.Mapped() {
		t.Fatal("subspace still marked mapped after Materialize")
	}
	off, succ, prob := mapped.CSR()
	wantOff, wantSucc, wantProb := ss.CSR()
	if !reflect.DeepEqual(off, wantOff) || !reflect.DeepEqual(succ, wantSucc) || !reflect.DeepEqual(prob, wantProb) {
		t.Fatal("materialized CSR corrupted by buffer teardown")
	}
	if !reflect.DeepEqual(mapped.Globals(), ss.Globals()) {
		t.Fatal("materialized globals corrupted by buffer teardown")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("Close after Materialize:", err)
	}
}

// TestMapConcurrentClose races Close against pinned in-flight readers:
// the unmap hook poisons the buffer, so a premature unmap shows up as a
// data mismatch (and as a race under -race).
func TestMapConcurrentClose(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	wantOff, _, _ := ss.CSR()
	for round := 0; round < 20; round++ {
		buf := copyAt(data, 0)
		mapped, err := Map(buf, a, scheduler.CentralPolicy{}, 1, 0, func() error {
			clear(buf)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := mapped.Acquire(); err != nil {
					return // closed before we started: nothing to read
				}
				defer mapped.Release()
				off, _, _ := mapped.CSR()
				for i := range off {
					if off[i] != wantOff[i] {
						t.Errorf("read %d at offset %d: buffer unmapped under a pinned reader", off[i], i)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			mapped.Close()
		}()
		close(start)
		wg.Wait()
	}
}

// TestMapTrustedParityAndShape pins the trusted fast path: on bytes that
// already passed a full validation it produces the same arrays as
// Map, and shape errors — misalignment, truncation — are still
// caught. Only the O(bytes) integrity passes are the caller's vouched-for
// territory (the spacecache vouches via inode-identity stamps).
func TestMapTrustedParityAndShape(t *testing.T) {
	sp, a, data := testSpaceBytes(t)
	got, err := MapTrusted(copyAt(data, 0), a, scheduler.CentralPolicy{}, 1, 0, nil)
	if err != nil {
		t.Fatalf("MapTrusted: %v", err)
	}
	off, succ, prob := got.CSR()
	wantOff, wantSucc, wantProb := sp.CSR()
	if !reflect.DeepEqual(off, wantOff) || !reflect.DeepEqual(succ, wantSucc) ||
		!reflect.DeepEqual(prob, wantProb) || !reflect.DeepEqual(got.Legit, sp.Legit) {
		t.Fatal("trusted load differs from the built space")
	}
	if _, err := MapTrusted(copyAt(data, 4), a, scheduler.CentralPolicy{}, 1, 0, nil); !errors.Is(err, ErrNotMappable) {
		t.Fatalf("misaligned trusted load: err = %v, want ErrNotMappable", err)
	}
	if _, err := MapTrusted(copyAt(data[:len(data)-16], 0), a, scheduler.CentralPolicy{}, 1, 0, nil); err == nil {
		t.Fatal("trusted load accepted a truncated buffer")
	}

	ss, sa, sdata := testSubSpaceBytes(t)
	mss, err := MapTrusted(copyAt(sdata, 0), sa, scheduler.CentralPolicy{}, 1, 0, nil)
	if err != nil {
		t.Fatalf("MapTrusted: %v", err)
	}
	if mss.States != ss.States || !reflect.DeepEqual(mss.Globals(), ss.Globals()) {
		t.Fatal("trusted subspace load differs from the built subspace")
	}
}

// TestMapSystemCopyMatchesAlias runs the decoder's copying mode — the one
// Read takes on big-endian hosts — on this host and pins it bit-equal to
// the aliasing mode, for a full space and for a closure.
func TestMapSystemCopyMatchesAlias(t *testing.T) {
	_, _, full := testSpaceBytes(t)
	_, _, sub := testSubSpaceBytes(t)
	for _, data := range [][]byte{full, sub} {
		h, err := parseHeader([headerSize]byte(data[:headerSize]))
		if err != nil {
			t.Fatal(err)
		}
		aliased, err := mapSystem(copyAt(data, 0), h, false, true)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := mapSystem(copyAt(data, 3), h, false, false)
		if err != nil {
			t.Fatalf("copying decode of a misaligned buffer: %v", err)
		}
		if !reflect.DeepEqual(aliased.off, copied.off) || !reflect.DeepEqual(aliased.succ, copied.succ) ||
			!reflect.DeepEqual(aliased.legit, copied.legit) || !reflect.DeepEqual(aliased.globals, copied.globals) {
			t.Fatal("copied arrays differ from aliased ones")
		}
		if !slices.Equal(bytesOf(aliased.probs.pal), bytesOf(copied.probs.pal)) || !slices.Equal(aliased.probs.code, copied.probs.code) {
			t.Fatal("copied probabilities differ bitwise from aliased ones")
		}
	}
}
