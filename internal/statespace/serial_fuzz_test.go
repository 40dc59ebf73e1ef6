package statespace

// Native fuzzing of the readers. The frontier/dedup/serial stack feeds
// every cached analysis, so the contract under hostile bytes must be
// absolute: an arbitrary mutation of a serialized system either fails
// cleanly (an error — wrong magic, wrong instance, shape violation,
// checksum mismatch) or decodes to a system whose re-serialization
// reproduces the input bytes exactly (the CRC-32C passed, so the payload
// was untouched). Panics, hangs and silently-wrong spaces are all
// failures. The targets share two bodies and differ in their seeds — a
// full space or a closure — and in the instances they read into, so a
// stream for one instance must also never load into another.
//
// Map and Read share one decoder, so they accept the same byte strings
// by construction; FuzzMapSpace and FuzzMapSubSpace hold them to it, on
// acceptance and on bit-equal arrays.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// fuzzInstances returns tokenring(4), whose full space has 3^4 = 81
// configurations, and tokenring(5), whose closures live in 2^5 = 32.
func fuzzInstances(f *testing.F) []protocol.Algorithm {
	f.Helper()
	var algs []protocol.Algorithm
	for _, n := range []int{4, 5} {
		a, err := tokenring.New(n)
		if err != nil {
			f.Fatal(err)
		}
		algs = append(algs, a)
	}
	return algs
}

// serialized returns the WriteTo bytes of a's full space (seeds nil) or
// of the closure of seeds in a.
func serialized(f *testing.F, a protocol.Algorithm, seeds []int64) []byte {
	f.Helper()
	pol := scheduler.CentralPolicy{}
	var sp *Space
	var err error
	if seeds == nil {
		sp, err = Build(a, pol, Options{})
	} else {
		sp, err = BuildFromContext(f.Context(), a, pol, seeds, Options{})
	}
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sp.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// checkRead: Read must error or round-trip bit-identically, never panic,
// and an accepted stream must belong to the instance it was read for.
func checkRead(t *testing.T, data []byte, algs []protocol.Algorithm) {
	pol := scheduler.CentralPolicy{}
	for _, a := range algs {
		got, err := Read(bytes.NewReader(data), a, pol, 1, 0)
		if err != nil {
			continue
		}
		if want := got.Enc.Total(); got.TotalConfigs() != want || int64(got.States) > want {
			t.Fatalf("system of %d states in %d configurations accepted for a %d-configuration instance",
				got.States, got.TotalConfigs(), want)
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted system failed to re-serialize: %v", err)
		}
		// Read consumes exactly out.Len() bytes; trailing garbage is
		// legitimately ignored, but the consumed prefix must match — the
		// checksum leaves no room for an accepted-but-different payload.
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted system re-serializes to %d bytes differing from its input", out.Len())
		}
	}
}

// checkMap cross-checks Map against Read on an aligned copy of data: on
// this host (big-endian hosts skip) the two must agree on acceptance and
// produce bit-equal arrays.
func checkMap(t *testing.T, data []byte, algs []protocol.Algorithm) {
	if !hostLittleEndian {
		t.Skip("mapped loads fall back on big-endian hosts")
	}
	pol := scheduler.CentralPolicy{}
	for _, a := range algs {
		mapped, mapErr := Map(copyAt(data, 0), a, pol, 1, 0, nil)
		decoded, decErr := Read(bytes.NewReader(data), a, pol, 1, 0)
		if errors.Is(mapErr, ErrNotMappable) {
			t.Fatalf("aligned little-endian buffer reported ErrNotMappable")
		}
		if (mapErr == nil) != (decErr == nil) {
			t.Fatalf("readers disagree on acceptance: map=%v read=%v", mapErr, decErr)
		}
		if mapErr != nil {
			continue
		}
		mo, ms, mp := mapped.CSR()
		do, ds, dp := decoded.CSR()
		if mapped.States != decoded.States || !reflect.DeepEqual(mapped.Legit, decoded.Legit) ||
			!reflect.DeepEqual(mo, do) || !reflect.DeepEqual(ms, ds) || !reflect.DeepEqual(mp, dp) ||
			!reflect.DeepEqual(mapped.Globals(), decoded.Globals()) {
			t.Fatalf("mapped and read systems differ for the same accepted bytes")
		}
	}
}

// FuzzReadSpace mutates a serialized full space of tokenring(4) and reads
// it into both instances.
func FuzzReadSpace(f *testing.F) {
	algs := fuzzInstances(f)
	f.Add(serialized(f, algs[0], nil))
	f.Fuzz(func(t *testing.T, data []byte) { checkRead(t, data, algs) })
}

// FuzzReadSubSpace mutates a serialized closure of tokenring(5), with the
// Globals section and its strict-ascent validation in play.
func FuzzReadSubSpace(f *testing.F) {
	algs := fuzzInstances(f)
	sub := serialized(f, algs[1], []int64{0, 1, 7, 13})
	f.Add(sub)
	f.Add(sub[:40])
	f.Add([]byte("WSSC\x02\x00\x01"))
	f.Fuzz(func(t *testing.T, data []byte) { checkRead(t, data, algs) })
}

// FuzzReadFromSubSpace reads mutated tokenring(5) closures into
// tokenring(4) only, so the dimension validation paths get fuzzed: the
// seed itself must be rejected, and anything accepted must carry the
// receiver's 81-configuration total.
func FuzzReadFromSubSpace(f *testing.F) {
	algs := fuzzInstances(f)
	f.Add(serialized(f, algs[1], []int64{0, 3}))
	f.Fuzz(func(t *testing.T, data []byte) { checkRead(t, data, algs[:1]) })
}

// FuzzMapSpace cross-checks Map against Read on mutated full-space bytes.
func FuzzMapSpace(f *testing.F) {
	algs := fuzzInstances(f)
	f.Add(serialized(f, algs[0], nil))
	f.Fuzz(func(t *testing.T, data []byte) { checkMap(t, data, algs) })
}

// FuzzMapSubSpace cross-checks Map against Read on mutated closure bytes,
// with the Globals section — its state-count consistency and strict-ascent
// validation — in play on the mapped path.
func FuzzMapSubSpace(f *testing.F) {
	algs := fuzzInstances(f)
	sub := serialized(f, algs[1], []int64{0, 1, 7, 13})
	f.Add(sub)
	f.Add(sub[:40])
	f.Fuzz(func(t *testing.T, data []byte) { checkMap(t, data, algs) })
}
