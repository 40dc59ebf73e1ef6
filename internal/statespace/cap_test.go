package statespace

import (
	"strings"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func TestStateCapResolution(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{0, DefaultMaxStates},
		{-5, DefaultMaxStates},
		{1, 1},
		{DefaultMaxStates + 1, DefaultMaxStates + 1},
		{IndexLimit, IndexLimit},
		{IndexLimit + 1, IndexLimit},
		{1 << 40, IndexLimit},
	}
	for _, c := range cases {
		if got := StateCap(c.in); got != c.want {
			t.Errorf("StateCap(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestBuildFromCapBoundary pins the inclusive cap semantics of the
// frontier engine at the exact boundary: a closure of S states builds
// under MaxStates = S and S+1 and fails under S-1, and a seed set of
// exactly MaxStates is admitted.
func TestBuildFromCapBoundary(t *testing.T) {
	ring, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy{}
	full, err := Build(ring, pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed a single illegitimate configuration: its forward closure must
	// grow past the seed set for the discovery cap to bite.
	var seeds []int64
	for s, ok := range full.Legit {
		if !ok {
			seeds = append(seeds, int64(s))
			break
		}
	}
	ref, err := BuildFromContext(t.Context(), ring, pol, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	S := int64(ref.NumStates())
	if S <= int64(len(seeds)) {
		t.Fatalf("closure (%d states) must outgrow the seed set (%d) for the boundary to be meaningful", S, len(seeds))
	}

	for _, cap := range []int64{S, S + 1} {
		ss, err := BuildFromContext(t.Context(), ring, pol, seeds, Options{MaxStates: cap})
		if err != nil {
			t.Fatalf("MaxStates=%d (closure is exactly %d states): %v", cap, S, err)
		}
		if int64(ss.NumStates()) != S {
			t.Fatalf("MaxStates=%d: explored %d states, want %d", cap, ss.NumStates(), S)
		}
	}
	if _, err := BuildFromContext(t.Context(), ring, pol, seeds, Options{MaxStates: S - 1}); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("MaxStates=%d must fail on a %d-state closure, got err=%v", S-1, S, err)
	}

	// Seed admission boundary: exactly MaxStates distinct seeds pass the
	// admission check (the closure then fails only if it must grow).
	if _, err := BuildFromContext(t.Context(), ring, pol, ref.Globals(), Options{MaxStates: S}); err != nil {
		t.Fatalf("seed set of exactly MaxStates=%d rejected: %v", S, err)
	}
	if _, err := BuildFromContext(t.Context(), ring, pol, ref.Globals(), Options{MaxStates: S - 1}); err == nil {
		t.Fatalf("%d seeds must exceed the %d-state cap", S, S-1)
	}
}

// TestBuildCapBoundary pins the inclusive cap of the full-range engine: a
// space of exactly MaxStates configurations builds; one fewer fails.
func TestBuildCapBoundary(t *testing.T) {
	ring, err := tokenring.New(4) // m=3 states per process: 3^4 = 81 configurations
	if err != nil {
		t.Fatal(err)
	}
	enc, err := protocol.NewEncoder(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := enc.Total()
	if sp, err := Build(ring, scheduler.CentralPolicy{}, Options{MaxStates: total}); err != nil {
		t.Fatalf("MaxStates=%d on a %d-configuration space: %v", total, total, err)
	} else if int64(sp.NumStates()) != total {
		t.Fatalf("explored %d states, want %d", sp.NumStates(), total)
	}
	if _, err := Build(ring, scheduler.CentralPolicy{}, Options{MaxStates: total - 1}); err == nil {
		t.Fatalf("MaxStates=%d must fail on a %d-configuration space", total-1, total)
	}
}
