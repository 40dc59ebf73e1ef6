package statespace

// Tests of the loader: bit-equal parity of its aliasing and copying modes
// with the built space, the rejection matrix (truncation, corruption,
// count/structure inconsistencies), when a loaded space owns its buffer,
// and the Acquire/Release/Close lifecycle — including Close racing
// in-flight readers, which the race-enabled CI job runs under the race
// detector.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
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
	sp, err := Build(a, scheduler.CentralPolicy, Options{})
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
	ss, err := BuildFromContext(t.Context(), a, scheduler.CentralPolicy, []int64{0, 1, 7, 13}, Options{})
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

// countUnmaps returns an unmap function and the number of times it ran.
func countUnmaps() (func() error, *int) {
	n := new(int)
	return func() error { *n++; return nil }, n
}

// TestMapSpaceParity: the same bytes aliased from an 8-aligned buffer and
// copied from a misaligned one give the built arrays, and the aliased
// load re-serializes to its input.
func TestMapSpaceParity(t *testing.T) {
	sp, a, data := testSpaceBytes(t)
	unmap, unmaps := countUnmaps()
	mapped, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy, 1, 0, false, unmap)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !mapped.Mapped() {
		t.Fatal("aliased load with an unmap function not marked mapped")
	}
	copied, err := Map(copyAt(data, 1), a, scheduler.CentralPolicy, 1, 0, false, nil)
	if err != nil {
		t.Fatalf("Map of a misaligned buffer: %v", err)
	}
	for _, got := range []*Space{mapped, copied} {
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
	if err := mapped.Close(); err != nil || *unmaps != 1 {
		t.Fatalf("Close: err %v, unmap ran %d times, want once", err, *unmaps)
	}
}

func TestMapSubSpaceParity(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	mapped, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy, 1, 0, false, nil)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	copied, err := Map(copyAt(data, 1), a, scheduler.CentralPolicy, 1, 0, false, nil)
	if err != nil {
		t.Fatalf("Map of a misaligned buffer: %v", err)
	}
	for _, got := range []*Space{mapped, copied} {
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
	// LocalIndex binary-searches the aliased globals.
	for s := 0; s < ss.States; s++ {
		if got := mapped.LocalIndex(ss.GlobalIndex(s)); got != int32(s) {
			t.Fatalf("LocalIndex(%d) = %d, want %d", ss.GlobalIndex(s), got, s)
		}
	}
	if mapped.LocalIndex(ss.TotalConfigs()-1) != -1 && ss.LocalIndex(ss.TotalConfigs()-1) == -1 {
		t.Fatal("mapped table found an undiscovered global")
	}
}

// TestMapMisalignedBuffer: the same bytes at a non-8-aligned base load as
// copies. Such a space owns no mapping, and Map releases the buffer at
// once.
func TestMapMisalignedBuffer(t *testing.T) {
	sp, a, data := testSpaceBytes(t)
	for rem := uintptr(1); rem < 8; rem++ {
		mis := copyAt(data, rem)
		unmap, unmaps := countUnmaps()
		got, err := Map(mis, a, scheduler.CentralPolicy, 1, 0, false, unmap)
		if err != nil {
			t.Fatalf("base%%8=%d: %v", rem, err)
		}
		if got.Mapped() || *unmaps != 1 {
			t.Fatalf("base%%8=%d: Mapped() = %v, unmap ran %d times; want a copy released at once", rem, got.Mapped(), *unmaps)
		}
		clear(mis) // nothing may alias the released buffer
		assertSpaceEqual(t, sp, got)
	}
}

// TestMapTruncatedTail covers truncation behind a valid header: every
// prefix must fail cleanly, never panic, never succeed.
func TestMapTruncatedTail(t *testing.T) {
	_, a, data := testSubSpaceBytes(t)
	for _, n := range []int{0, 16, 32, 40, len(data) / 2, len(data) - 9, len(data) - 8, len(data) - 1} {
		if _, err := Map(copyAt(data[:n], 0), a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatalf("Map accepted a %d-byte prefix of %d bytes", n, len(data))
		}
	}
}

func TestMapCorruptPayload(t *testing.T) {
	_, a, data := testSpaceBytes(t)
	bad := copyAt(data, 0)
	bad[64] ^= 0x40
	unmap, unmaps := countUnmaps()
	_, err := Map(bad, a, scheduler.CentralPolicy, 1, 0, false, unmap)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted payload: err = %v, want checksum mismatch", err)
	}
	if *unmaps != 1 {
		t.Fatalf("a rejected load ran unmap %d times, want once", *unmaps)
	}
}

// TestMapGlobalsConsistency covers the explicit Globals-vs-state-count and
// strict-ascent checks of the aliasing and copying loads, with the CRC
// refreshed so the structural validation itself is what rejects.
func TestMapGlobalsConsistency(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	globCount := len(data) - 8 - ss.States*8 - 8

	t.Run("count-mismatch", func(t *testing.T) {
		bad := copyAt(data, 0)
		binary.LittleEndian.PutUint64(bad[globCount:], uint64(ss.States-1))
		refreshCRC(bad)
		if _, err := Map(bad, a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatal("aliased load accepted a globals count != state count")
		}
		if _, err := Map(copyAt(bad, 1), a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatal("copied load accepted a globals count != state count")
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
		if _, err := Map(bad, a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatal("aliased load accepted non-ascending globals")
		}
		if _, err := Map(copyAt(bad, 1), a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatal("copied load accepted non-ascending globals")
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
		if _, err := Map(bad, a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatal("aliased load accepted nonzero section padding")
		}
		if _, err := Map(copyAt(bad, 1), a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Fatal("copied load accepted nonzero section padding")
		}
	})
}

// TestMapPaletteConsistency: a stream whose checksum holds but whose
// palette is out of order, whose codes index past the palette, or whose
// header declares a palette no layout allows is rejected aliased and
// copied.
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
		if _, err := Map(bad, a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Errorf("%s: aliased load accepted the stream", name)
		}
		if _, err := Map(copyAt(bad, 1), a, scheduler.CentralPolicy, 1, 0, false, nil); err == nil {
			t.Errorf("%s: copied load accepted the stream", name)
		}
	}
}

// TestMappingLifecycle pins the ownership contract: Close is idempotent,
// defers the unmap to the last Release, and refuses new Acquires.
func TestMappingLifecycle(t *testing.T) {
	_, a, data := testSpaceBytes(t)
	unmapped := 0
	sp, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy, 1, 0, false, func() error {
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

// TestMapConcurrentClose races Close against pinned in-flight readers:
// the unmap hook poisons the buffer, so a premature unmap shows up as a
// data mismatch (and as a race under -race).
func TestMapConcurrentClose(t *testing.T) {
	ss, a, data := testSubSpaceBytes(t)
	wantOff, _, _ := ss.CSR()
	for round := 0; round < 20; round++ {
		buf := copyAt(data, 0)
		mapped, err := Map(buf, a, scheduler.CentralPolicy, 1, 0, false, func() error {
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

// TestMapTrustedParityAndShape pins the trusted load: on bytes that
// already passed a full validation it produces the built arrays, aliased
// or copied, and shape errors such as truncation are still caught. Only
// the O(bytes) integrity passes are the caller's vouched-for territory
// (the spacecache vouches via inode-identity stamps).
func TestMapTrustedParityAndShape(t *testing.T) {
	sp, a, data := testSpaceBytes(t)
	for _, rem := range []uintptr{0, 4} {
		got, err := Map(copyAt(data, rem), a, scheduler.CentralPolicy, 1, 0, true, nil)
		if err != nil {
			t.Fatalf("trusted load at base%%8=%d: %v", rem, err)
		}
		assertSpaceEqual(t, sp, got)
	}
	if _, err := Map(copyAt(data[:len(data)-16], 0), a, scheduler.CentralPolicy, 1, 0, true, nil); err == nil {
		t.Fatal("trusted load accepted a truncated buffer")
	}

	ss, sa, sdata := testSubSpaceBytes(t)
	mss, err := Map(copyAt(sdata, 0), sa, scheduler.CentralPolicy, 1, 0, true, nil)
	if err != nil {
		t.Fatalf("trusted load: %v", err)
	}
	assertSpaceEqual(t, ss, mss)
}

// TestMapSystemCopyMatchesAlias runs the loader's copying mode — the one
// big-endian hosts take — on this host and pins it bit-equal to the
// aliasing mode, for a full space and for a closure.
func TestMapSystemCopyMatchesAlias(t *testing.T) {
	_, a4, full := testSpaceBytes(t)
	_, a5, sub := testSubSpaceBytes(t)
	for _, tc := range []struct {
		a    *tokenring.Algorithm
		data []byte
	}{{a4, full}, {a5, sub}} {
		aliased, err := Map(copyAt(tc.data, 0), tc.a, scheduler.CentralPolicy, 1, 0, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := Map(copyAt(tc.data, 3), tc.a, scheduler.CentralPolicy, 1, 0, false, nil)
		if err != nil {
			t.Fatalf("copying load of a misaligned buffer: %v", err)
		}
		assertSpaceEqual(t, aliased, copied)
	}
}
