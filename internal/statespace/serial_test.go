package statespace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
)

// assertSpaceEqual checks bit-equality of every persisted field, and that
// the local↔global mapping answers lookups exactly like the original.
func assertSpaceEqual(t *testing.T, want, got *Space) {
	t.Helper()
	if want.States != got.States {
		t.Fatalf("States = %d, want %d", got.States, want.States)
	}
	if !slices.Equal(want.Legit, got.Legit) {
		t.Fatal("Legit vectors differ")
	}
	if !slices.Equal(want.off, got.off) {
		t.Fatal("off arrays differ")
	}
	if !slices.Equal(want.succ, got.succ) {
		t.Fatal("succ arrays differ")
	}
	// Equality on float64 is value-semantics; compare raw bits to pin
	// exact round-tripping, layout included.
	wp, gp := want.probs, got.probs
	if wp.Coded() != gp.Coded() || !slices.Equal(bytesOf(wp.pal), bytesOf(gp.pal)) ||
		!slices.Equal(wp.code, gp.code) || !slices.Equal(bytesOf(wp.wide), bytesOf(gp.wide)) {
		t.Fatal("probabilities differ")
	}
	if !slices.Equal(want.Globals(), got.Globals()) || (want.Globals() == nil) != (got.Globals() == nil) {
		t.Fatal("Globals vectors differ")
	}
	for s := 0; s < want.States; s++ {
		if g := want.GlobalIndex(s); got.LocalIndex(g) != int32(s) {
			t.Fatalf("LocalIndex(%d) = %d, want %d", g, got.LocalIndex(g), s)
		}
	}
}

func TestSpaceRoundTrip(t *testing.T) {
	for _, tc := range frontierMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Build(tc.alg, tc.pol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := sp.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := Map(buf.Bytes(), tc.alg, tc.pol, 0, 0, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mapped() {
				t.Fatal("a load without an unmap function reports Mapped")
			}
			assertSpaceEqual(t, sp, got)
		})
	}
}

func TestSubSpaceRoundTrip(t *testing.T) {
	for _, tc := range frontierMatrix(t) {
		t.Run(tc.name, func(t *testing.T) {
			// Seed with the legitimate set: a nontrivial strict closure.
			full, err := Build(tc.alg, tc.pol, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var seeds []int64
			for s, ok := range full.Legit {
				if ok {
					seeds = append(seeds, int64(s))
				}
			}
			ss, err := BuildFromContext(t.Context(), tc.alg, tc.pol, seeds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ss.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Map(buf.Bytes(), tc.alg, tc.pol, 0, 0, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSpaceEqual(t, ss, got)
		})
	}
}

// serializedFixture returns a valid serialized space and its instance.
func serializedFixture(t *testing.T) ([]byte, *Space) {
	t.Helper()
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Build(ring, scheduler.CentralPolicy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sp
}

func TestReadRejectsTruncation(t *testing.T) {
	data, sp := serializedFixture(t)
	// Cut at a spread of prefix lengths: empty, mid-header, each section
	// boundary neighborhood, and one byte short of complete.
	cuts := []int{0, 3, 17, 31, 32, 40, len(data) / 3, len(data) / 2, len(data) - 9, len(data) - 1}
	for _, cut := range cuts {
		if _, err := Map(data[:cut], sp.Alg, sp.Pol, 0, 0, false, nil); err == nil {
			t.Fatalf("truncation at %d of %d bytes not rejected", cut, len(data))
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	data, sp := serializedFixture(t)
	// Flip one byte at a spread of offsets past the header (header
	// corruption is caught by its own validation; payload corruption must
	// be caught by the checksum).
	for _, at := range []int{40, len(data) / 4, len(data) / 2, len(data) - 12} {
		bad := bytes.Clone(data)
		bad[at] ^= 0x40
		if _, err := Map(bad, sp.Alg, sp.Pol, 0, 0, false, nil); err == nil {
			t.Fatalf("corrupted byte at %d not rejected", at)
		}
	}
	// Corrupting the stored checksum itself must also fail.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0x01
	if _, err := Map(bad, sp.Alg, sp.Pol, 0, 0, false, nil); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatal("corrupted trailer checksum not rejected as a checksum mismatch")
	}
}

func TestReadRejectsVersionMismatch(t *testing.T) {
	data, sp := serializedFixture(t)
	bad := bytes.Clone(data)
	binary.LittleEndian.PutUint16(bad[4:6], SerialVersion+1)
	_, err := Map(bad, sp.Alg, sp.Pol, 0, 0, false, nil)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not rejected, err=%v", err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	data, sp := serializedFixture(t)
	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, err := Map(bad, sp.Alg, sp.Pol, 0, 0, false, nil); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatal("bad magic not rejected")
	}
}

// TestReadRejectsKindMismatch: the header's kind decides the layout, so an
// unknown kind is refused outright, and a full-space stream relabelled as
// a closure no longer matches its own layout (it lacks the Globals
// section), aliased or copied. Which kind a cache entry must hold is
// spacecache's check.
func TestReadRejectsKindMismatch(t *testing.T) {
	data, sp := serializedFixture(t)
	for _, kind := range []byte{kindSubSpace, 2, 0xff} {
		bad := bytes.Clone(data)
		bad[6] = kind
		for rem := uintptr(0); rem < 2; rem++ {
			if _, err := Map(copyAt(bad, rem), sp.Alg, sp.Pol, 0, 0, false, nil); err == nil {
				t.Fatalf("kind %d: full-space stream accepted at base%%8=%d", kind, rem)
			}
		}
	}
}

func TestReadRejectsWrongInstance(t *testing.T) {
	data, _ := serializedFixture(t) // tokenring n=5
	ring6, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(data, ring6, scheduler.CentralPolicy, 0, 0, false, nil); err == nil {
		t.Fatal("n=5 stream accepted for an n=6 instance")
	}
}

// TestReadCapBeforeBody: a system beyond the state cap is refused at its
// header — the header alone draws the cap error, not a truncation error.
func TestReadCapBeforeBody(t *testing.T) {
	data, sp := serializedFixture(t)
	if _, err := Map(data[:headerSize], sp.Alg, sp.Pol, 0, int64(sp.States-1), false, nil); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap header: err = %v, want a cap error", err)
	}
	if _, err := Map(data, sp.Alg, sp.Pol, 0, int64(sp.States), false, nil); err != nil {
		t.Fatalf("stream at exactly the cap rejected: %v", err)
	}
}

// TestReadBoundedAllocation feeds a header claiming MaxInt32 states — 16
// GiB of offsets alone — followed by a few bytes. Map must fail having
// allocated nothing for the sections the header claims.
func TestReadBoundedAllocation(t *testing.T) {
	ring, err := tokenring.New(31) // modulus 2: 2^31 configurations
	if err != nil {
		t.Fatal(err)
	}
	var hdr [headerSize]byte
	copy(hdr[0:4], serialMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], SerialVersion)
	hdr[6] = kindSubSpace
	binary.LittleEndian.PutUint64(hdr[8:16], math.MaxInt32)
	binary.LittleEndian.PutUint64(hdr[24:32], 1<<31)
	stream := append(hdr[:], make([]byte, 24)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Map(stream, ring, scheduler.CentralPolicy, 1, IndexLimit, false, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("lying header accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("lying header made Map allocate %d bytes, want < 1 MiB", alloc)
	}
}

// TestSubSpaceReadAnalysesMatch pins that a loaded closure is
// indistinguishable from the built one under the analyses: identical
// reverse CSR and identical decoded configurations.
func TestSubSpaceReadAnalysesMatch(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.DistributedPolicy
	ss, err := BuildFromContext(t.Context(), ring, pol, []int64{0, 1, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ss.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Map(buf.Bytes(), ring, pol, 0, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRev, gotRev := ss.Reverse(), got.Reverse()
	if !reflect.DeepEqual(wantRev, gotRev) {
		t.Fatal("reverse CSR differs between built and loaded closure")
	}
	for s := 0; s < ss.NumStates(); s++ {
		if !ss.Config(s).Equal(got.Config(s)) {
			t.Fatalf("Config(%d) differs", s)
		}
	}
}
