package statespace

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// TestBuilderWavesMatchBuildFrom pins the resumable engine's core
// property: extending a Builder with seed waves yields, at every seal,
// exactly the subspace BuildFromContext produces from the union of the
// waves so far — arrays bit-equal, across worker counts and policies.
func TestBuilderWavesMatchBuildFrom(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	waves := [][]int64{
		{0, 5},
		{1, 2, 5}, // overlaps wave 1
		{20, 17},
	}
	for _, pol := range []scheduler.Policy{scheduler.CentralPolicy, scheduler.SynchronousPolicy} {
		for _, workers := range []int{1, 4} {
			opt := Options{Workers: workers}
			b, err := NewBuilder(a, pol, opt)
			if err != nil {
				t.Fatal(err)
			}
			var union []int64
			for w, wave := range waves {
				if err := b.ExtendContext(t.Context(), wave); err != nil {
					t.Fatal(err)
				}
				union = append(union, wave...)
				got := b.Seal()
				want, err := BuildFromContext(t.Context(), a, pol, union, opt)
				if err != nil {
					t.Fatal(err)
				}
				assertSpaceEqual(t, want, got)
				if b.Len() != got.NumStates() {
					t.Fatalf("wave %d: builder holds %d states, sealed %d", w, b.Len(), got.NumStates())
				}
			}
		}
	}
}

// TestBuilderSealIsolation pins the snapshot contract: a sealed subspace
// is untouched by later growth of the builder.
func TestBuilderSealIsolation(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	b, err := NewBuilder(a, pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExtendContext(t.Context(), []int64{0}); err != nil {
		t.Fatal(err)
	}
	first := b.Seal()
	want, err := BuildFromContext(t.Context(), a, pol, []int64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExtendContext(t.Context(), []int64{7, 21, 30}); err != nil {
		t.Fatal(err)
	}
	_ = b.Seal()
	// The first snapshot still equals the from-scratch build of its seeds.
	assertSpaceEqual(t, want, first)
	// And it still answers queries through its own table.
	if _, ok := first.StateOf(want.Config(0)); !ok {
		t.Fatal("sealed snapshot lost its state lookup after builder growth")
	}
}

// TestBuilderResumeFrom pins ResumeFrom: a builder adopted from a sealed
// subspace continues bit-identically to one that never stopped, and the
// adopted subspace is never mutated.
func TestBuilderResumeFrom(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.DistributedPolicy
	base, err := BuildFromContext(t.Context(), a, pol, []int64{0, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildFromContext(t.Context(), a, pol, []int64{0, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ResumeFrom(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Len() != base.NumStates() {
		t.Fatalf("resumed builder holds %d states, want %d", rb.Len(), base.NumStates())
	}
	if err := rb.ExtendContext(t.Context(), []int64{11, 29}); err != nil {
		t.Fatal(err)
	}
	got := rb.Seal()
	want, err := BuildFromContext(t.Context(), a, pol, []int64{0, 3, 11, 29}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSpaceEqual(t, want, got)
	// The adopted subspace must be untouched by the growth.
	assertSpaceEqual(t, ref, base)
}

// TestBuilderCapSemantics pins the inclusive cap across waves: the cap
// counts every discovered state since NewBuilder, not per Extend.
func TestBuilderCapSemantics(t *testing.T) {
	a, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	full, err := BuildFromContext(t.Context(), a, pol, []int64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(full.NumStates())
	// Exactly n states: builds.
	b, err := NewBuilder(a, pol, Options{MaxStates: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExtendContext(t.Context(), []int64{0}); err != nil {
		t.Fatalf("cap of exactly %d states must admit the closure: %v", n, err)
	}
	// One fewer: the exploration fails with the cap error.
	b, err = NewBuilder(a, pol, Options{MaxStates: n - 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExtendContext(t.Context(), []int64{0}); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("cap of %d states on a %d-state closure: err=%v", n-1, n, err)
	}
	// ResumeFrom under a too-small cap is rejected up front.
	if _, err := ResumeFrom(full, Options{MaxStates: n - 1}); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("resume of a %d-state subspace under a %d-state cap: err=%v", n, n-1, err)
	}
	// Sealing an empty builder yields nil.
	b, err = NewBuilder(a, pol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss := b.Seal(); ss != nil {
		t.Fatalf("empty builder sealed to %d states, want nil", ss.NumStates())
	}
}

// legitAndShell returns a's legitimate configurations and the single-process
// mutations of them that are not legitimate, as global indexes: the radius-0
// ball and the new members of the radius-1 ball.
func legitAndShell(t *testing.T, a protocol.Algorithm) (legit, shell []int64) {
	t.Helper()
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := map[int64]bool{}
	for g := range enc.Total() {
		if a.Legitimate(enc.Decode(g, nil)) {
			legit = append(legit, g)
			in[g] = true
		}
	}
	for _, g := range legit {
		cfg := enc.Decode(g, nil)
		for p, orig := range cfg {
			for v := range a.StateCount(p) {
				if m := g + int64(v-orig)*enc.Weight(p); v != orig && !in[m] {
					shell = append(shell, m)
					in[m] = true
				}
			}
		}
	}
	return legit, shell
}

// TestFinishMatchesSeal pins the consuming seal: Finish returns exactly
// what Seal returns on an identically built builder, releases the builder's
// Dedup table and discovery-order segments, and leaves the builder unusable.
func TestFinishMatchesSeal(t *testing.T) {
	dk, err := dijkstra.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := tokenring.NewWithModulus(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := herman.New(5)
	if err != nil {
		t.Fatal(err)
	}
	dkL, dkShell := legitAndShell(t, dk)
	ringL, _ := legitAndShell(t, ring)
	cases := []struct {
		name  string
		alg   protocol.Algorithm
		pol   scheduler.Policy
		waves [][]int64
	}{
		{"dijkstra5/ball1", dk, scheduler.CentralPolicy, [][]int64{dkL, dkShell}},
		{"tokenring7/reachable", ring, scheduler.CentralPolicy, [][]int64{ringL}},
		{"herman5/distributed", hr, scheduler.DistributedPolicy, [][]int64{{5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Builder {
				b, err := NewBuilder(tc.alg, tc.pol, Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, wave := range tc.waves {
					if err := b.ExtendContext(t.Context(), wave); err != nil {
						t.Fatal(err)
					}
				}
				return b
			}
			want := build().Seal()
			b := build()
			table, shells := weak.Make(b.table), weak.Make(&b.shells[0])
			got := b.Finish()
			assertSpaceEqual(t, want, got)
			runtime.GC()
			if table.Value() != nil || shells.Value() != nil {
				t.Fatalf("Finish kept the table (%v) or the discovery-order segments (%v) alive",
					table.Value() != nil, shells.Value() != nil)
			}
			if err := b.ExtendContext(t.Context(), tc.waves[0]); err == nil || !strings.HasPrefix(err.Error(), "statespace:") {
				t.Fatalf("ExtendContext after Finish: err = %v, want a statespace: error", err)
			}
			if b.Len() != 0 || b.Seal() != nil || b.Finish() != nil {
				t.Fatal("a finished builder still reports states or seals a space")
			}
		})
	}
	b, err := NewBuilder(ring, scheduler.CentralPolicy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss := b.Finish(); ss != nil {
		t.Fatalf("empty builder finished to %d states, want nil", ss.NumStates())
	}
}
