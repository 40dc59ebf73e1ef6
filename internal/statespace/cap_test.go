package statespace

import (
	"fmt"
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
	pol := scheduler.CentralPolicy
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
	checkCapBoundaryHashed(t)
}

// checkCapBoundaryHashed pins the same inclusive cap where the parallel
// insertion decides it: a hashed index range (tokenring(16)), the 1-fault
// closure's last BFS level adding 24 states, at one worker and at four. A
// cap of exactly the closure size passes; one fewer falls inside the last
// level and fails with the frontier's message, as does a cap inside the
// widest level.
func checkCapBoundaryHashed(t *testing.T) {
	ring, err := tokenring.New(16)
	if err != nil {
		t.Fatal(err)
	}
	seeds := faultBall(t, ring, 1)
	for _, workers := range []int{1, 4} {
		ref, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, seeds, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		S := int64(ref.NumStates())
		ss, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, seeds, Options{Workers: workers, MaxStates: S})
		if err != nil || int64(ss.NumStates()) != S {
			t.Fatalf("w=%d MaxStates=%d on a %d-state closure: err=%v", workers, S, S, err)
		}
		want := fmt.Sprintf("statespace: %d seeds exceed the %d-state cap", S, S-1)
		if _, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, ref.Globals(), Options{Workers: workers, MaxStates: S - 1}); err == nil || err.Error() != want {
			t.Fatalf("w=%d: %d seeds under MaxStates=%d: err=%v, want %q", workers, S, S-1, err, want)
		}
		for _, cap := range []int64{S - 1, (int64(len(seeds)) + S) / 2} {
			want := fmt.Sprintf("statespace: frontier exploration exceeds the %d-state cap", cap)
			if _, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, seeds, Options{Workers: workers, MaxStates: cap}); err == nil || err.Error() != want {
				t.Fatalf("w=%d MaxStates=%d on a %d-state closure: err=%v, want %q", workers, cap, S, err, want)
			}
		}
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
	if sp, err := Build(ring, scheduler.CentralPolicy, Options{MaxStates: total}); err != nil {
		t.Fatalf("MaxStates=%d on a %d-configuration space: %v", total, total, err)
	} else if int64(sp.NumStates()) != total {
		t.Fatalf("explored %d states, want %d", sp.NumStates(), total)
	}
	if _, err := Build(ring, scheduler.CentralPolicy, Options{MaxStates: total - 1}); err == nil {
		t.Fatalf("MaxStates=%d must fail on a %d-configuration space", total-1, total)
	}
}
