package statespace

// Native fuzzing of the loader. The frontier/dedup/serial stack feeds
// every cached analysis, so the contract under hostile bytes must be
// absolute: an arbitrary mutation of a serialized system either fails
// cleanly (an error — wrong magic, wrong instance, shape violation,
// checksum mismatch) or decodes to a system whose re-serialization
// reproduces the input bytes exactly (the CRC-32C passed, so the payload
// was untouched). Panics, hangs and silently-wrong spaces are all
// failures.
//
// The FuzzRead* targets load every input aliased and copied, into one or
// both instances, so a stream for one instance must also never load into
// another, and hold the two modes to the same verdict and bit-equal
// arrays. The FuzzMap* targets fuzz Map's ownership and trust contract:
// unmap runs exactly once whatever the bytes, the space is Mapped only
// when it aliases them, and a trusted load of accepted bytes gives the
// same arrays as the full one.

import (
	"bytes"
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
	pol := scheduler.CentralPolicy
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

// checkLoad: loading must error or round-trip bit-identically, never
// panic, and an accepted stream must belong to the instance it was loaded
// for. The aliased load (an 8-aligned buffer) and the copied one (the
// same bytes one byte off) must agree on acceptance and give bit-equal
// arrays.
func checkLoad(t *testing.T, data []byte, algs []protocol.Algorithm) {
	pol := scheduler.CentralPolicy
	for _, a := range algs {
		aliased, aErr := Map(copyAt(data, 0), a, pol, 1, 0, false, nil)
		copied, cErr := Map(copyAt(data, 1), a, pol, 1, 0, false, nil)
		if (aErr == nil) != (cErr == nil) {
			t.Fatalf("aliased and copied loads disagree on acceptance: aliased=%v copied=%v", aErr, cErr)
		}
		if aErr != nil {
			continue
		}
		assertSpaceEqual(t, aliased, copied)
		if want := aliased.Enc.Total(); aliased.TotalConfigs() != want || int64(aliased.States) > want {
			t.Fatalf("system of %d states in %d configurations accepted for a %d-configuration instance",
				aliased.States, aliased.TotalConfigs(), want)
		}
		var out bytes.Buffer
		if _, err := aliased.WriteTo(&out); err != nil {
			t.Fatalf("accepted system failed to re-serialize: %v", err)
		}
		// Bytes after the trailer are legitimately ignored, but the prefix
		// must match — the checksum leaves no room for an
		// accepted-but-different payload.
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted system re-serializes to %d bytes differing from its input", out.Len())
		}
	}
}

// checkMap holds Map to its ownership and trust contract on data.
func checkMap(t *testing.T, data []byte, algs []protocol.Algorithm) {
	pol := scheduler.CentralPolicy
	for _, a := range algs {
		for _, at := range []uintptr{0, 1} {
			buf := copyAt(data, at)
			unmaps := 0
			sp, err := Map(buf, a, pol, 1, 0, false, func() error { unmaps++; return nil })
			aliased := hostLittleEndian && at == 0
			if err != nil || !aliased {
				if unmaps != 1 {
					t.Fatalf("offset %d, err=%v: unmap ran %d times before Map returned, want 1", at, err, unmaps)
				}
				if err != nil {
					continue
				}
			}
			if sp.Mapped() != aliased {
				t.Fatalf("offset %d: Mapped()=%v, want %v", at, sp.Mapped(), aliased)
			}
			trusted, err := Map(buf, a, pol, 1, 0, true, nil)
			if err != nil {
				t.Fatalf("offset %d: trusted load rejected bytes the full load accepted: %v", at, err)
			}
			assertSpaceEqual(t, sp, trusted)
			if err := sp.Close(); err != nil {
				t.Fatalf("offset %d: Close: %v", at, err)
			}
			if err := sp.Close(); err != nil || unmaps != 1 {
				t.Fatalf("offset %d: after two Closes unmap ran %d times (err=%v), want 1", at, unmaps, err)
			}
		}
	}
}

// FuzzReadSpace mutates a serialized full space of tokenring(4) and loads
// it into both instances.
func FuzzReadSpace(f *testing.F) {
	algs := fuzzInstances(f)
	f.Add(serialized(f, algs[0], nil))
	f.Fuzz(func(t *testing.T, data []byte) { checkLoad(t, data, algs) })
}

// FuzzReadSubSpace mutates serialized closures of tokenring(5), with the
// Globals section — its state-count consistency and strict-ascent
// validation — in play, and loads them into both instances.
func FuzzReadSubSpace(f *testing.F) {
	algs := fuzzInstances(f)
	sub := serialized(f, algs[1], []int64{0, 1, 7, 13})
	f.Add(sub)
	f.Add(sub[:40])
	f.Add([]byte("WSSC\x02\x00\x01"))
	// A closure of no states, which no exploration seals, still loads as
	// a closure.
	enc, err := protocol.NewEncoder(algs[1], 0)
	if err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if _, err := (&Space{Enc: enc, globals: []int64{}, off: []int64{0}}).WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) { checkLoad(t, data, algs) })
}

// FuzzReadFromSubSpace loads mutated tokenring(5) closures into
// tokenring(4) only, so the dimension validation paths get fuzzed: the
// seed itself must be rejected, and anything accepted must carry the
// receiver's 81-configuration total.
func FuzzReadFromSubSpace(f *testing.F) {
	algs := fuzzInstances(f)
	f.Add(serialized(f, algs[1], []int64{0, 3}))
	f.Fuzz(func(t *testing.T, data []byte) { checkLoad(t, data, algs[:1]) })
}

// FuzzMapSpace holds Map's ownership and trust contract on mutated
// full-space bytes.
func FuzzMapSpace(f *testing.F) {
	algs := fuzzInstances(f)
	f.Add(serialized(f, algs[0], nil))
	f.Fuzz(func(t *testing.T, data []byte) { checkMap(t, data, algs) })
}

// FuzzMapSubSpace holds Map's ownership and trust contract on mutated
// closure bytes, with the Globals section in play on the trusted path.
func FuzzMapSubSpace(f *testing.F) {
	algs := fuzzInstances(f)
	sub := serialized(f, algs[1], []int64{0, 1, 7, 13})
	f.Add(sub)
	f.Add(sub[:40])
	f.Fuzz(func(t *testing.T, data []byte) { checkMap(t, data, algs) })
}
