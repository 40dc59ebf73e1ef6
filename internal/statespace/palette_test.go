package statespace_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/core"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// manyCoins is a test-only algorithm on a ring whose coin biases take
// levels distinct values: a process with state v > 0 is enabled and moves
// to v-1 with a probability that depends on its id, its state and its
// left neighbour's state, and stays put otherwise. L is the all-zero
// configuration, reached with probability 1. With levels = 97 a central
// space holds far more than 256 distinct edge probabilities.
type manyCoins struct {
	g         *graph.Graph
	d, levels int
}

func newManyCoins(t *testing.T, n, d, levels int) manyCoins {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return manyCoins{g: g, d: d, levels: levels}
}

func (a manyCoins) Name() string {
	return fmt.Sprintf("manycoins(n=%d,d=%d,levels=%d)", a.g.N(), a.d, a.levels)
}
func (a manyCoins) Graph() *graph.Graph   { return a.g }
func (a manyCoins) StateCount(int) int    { return a.d }
func (a manyCoins) ActionName(int) string { return "flip" }

func (a manyCoins) EnabledAction(cfg protocol.Configuration, p int) int {
	if cfg[p] == 0 {
		return protocol.Disabled
	}
	return 0
}

func (a manyCoins) Outcomes(cfg protocol.Configuration, p, _ int) []protocol.Outcome {
	n := a.g.N()
	key := (p*a.d+cfg[p])*a.d + cfg[(p+n-1)%n]
	q := float64(1+key%a.levels) / float64(a.levels+1)
	return []protocol.Outcome{{State: cfg[p] - 1, Prob: q}, {State: cfg[p], Prob: 1 - q}}
}

func (a manyCoins) Legitimate(cfg protocol.Configuration) bool {
	for _, v := range cfg {
		if v != 0 {
			return false
		}
	}
	return true
}

// probValues returns the space's edge probabilities, read through At.
func probValues(sp *statespace.Space) []float64 {
	_, _, p := sp.CSR()
	out := make([]float64, sp.Edges())
	for e := range out {
		out[e] = p.At(int64(e))
	}
	return out
}

// distinct counts the distinct bit patterns among the probabilities.
func distinct(sp *statespace.Space) int {
	seen := map[uint64]bool{}
	for _, v := range probValues(sp) {
		seen[math.Float64bits(v)] = true
	}
	return len(seen)
}

// bufferAt returns a copy of data whose base address is ≡ rem (mod 8):
// Map aliases a buffer at rem 0 and copies one at any other.
func bufferAt(data []byte, rem int) []byte {
	words := make([]uint64, (len(data)+15)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8)[rem : rem+len(data)]
	copy(buf, data)
	return buf
}

// sameProbs reports whether two spaces' probability arrays have the same
// layout, palette and bits (with one palette, equal bits are equal codes).
func sameProbs(a, b *statespace.Space) bool {
	_, _, ap := a.CSR()
	_, _, bp := b.CSR()
	if ap.Coded() != bp.Coded() || !slices.Equal(ap.Palette(), bp.Palette()) {
		return false
	}
	af, bf := probValues(a), probValues(b)
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return len(af) == len(bf)
}

// TestPaletteOverflowRoundTrip: a space whose alphabet fits the palette is
// coded and one whose alphabet overflows it keeps plain float64s. Both
// round-trip bit-exactly through WriteTo and Map, aliased and copied, and
// give the same report and hitting times from every copy, equal bit for
// bit to a solve over plain float64 arrays (markov.FromCSR).
func TestPaletteOverflowRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		levels int
		coded  bool
	}{{2, true}, {97, false}} {
		a := newManyCoins(t, 5, 4, tc.levels)
		pol := scheduler.CentralPolicy
		built, err := statespace.Build(a, pol, statespace.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		_, _, prob := built.CSR()
		if prob.Coded() != tc.coded {
			t.Fatalf("%s: coded = %v with %d distinct probabilities, want %v", a.Name(), prob.Coded(), distinct(built), tc.coded)
		}
		if !tc.coded && distinct(built) <= 256 {
			t.Fatalf("%s: only %d distinct probabilities", a.Name(), distinct(built))
		}
		var buf bytes.Buffer
		if _, err := built.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		copied, err := statespace.Map(bufferAt(buf.Bytes(), 1), a, pol, 1, 0, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := statespace.Map(bufferAt(buf.Bytes(), 0), a, pol, 1, 0, false, func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}

		off, succ, _ := built.CSR()
		ref, err := markov.FromCSR(off, succ, probValues(built))
		if err != nil {
			t.Fatal(err)
		}
		target := markov.TargetFromSpace(built)
		want, err := ref.HittingTimes(target)
		if err != nil {
			t.Fatal(err)
		}
		var wantRep *core.Report
		for _, sp := range []*statespace.Space{built, copied, mapped} {
			if !sameProbs(sp, built) {
				t.Fatalf("%s: loaded probabilities differ from the built ones", a.Name())
			}
			var again bytes.Buffer
			if _, err := sp.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatalf("%s: re-serialization differs (%v)", a.Name(), err)
			}
			chain, err := markov.FromSpace(sp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := chain.HittingTimes(markov.TargetFromSpace(sp))
			if err != nil {
				t.Fatal(err)
			}
			for s := range want {
				if math.Float64bits(got[s]) != math.Float64bits(want[s]) {
					t.Fatalf("%s: h[%d] = %v, float64 reference %v", a.Name(), s, got[s], want[s])
				}
			}
			rep, err := core.AnalyzeSpaceContext(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			if wantRep == nil {
				wantRep = rep
				if sum := markov.Summarize(want, target); rep.ExpectedSteps != sum || !rep.ProbabilisticConvergence {
					t.Fatalf("%s: report %+v, float64 reference %+v", a.Name(), rep.ExpectedSteps, sum)
				}
			} else if !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("%s: report of a loaded copy differs:\n%+v\n%+v", a.Name(), rep, wantRep)
			}
		}
		mapped.Close()
	}
}

// paletteInstances are the spaces the worker-invariance tests build:
// deterministic and coin-flipping algorithms, central and distributed.
func paletteInstances(t *testing.T) []struct {
	a   protocol.Algorithm
	pol scheduler.Policy
} {
	t.Helper()
	ring, err := tokenring.NewWithModulus(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	trans, err := transformer.NewBiased(small, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	h, err := herman.New(7)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		a   protocol.Algorithm
		pol scheduler.Policy
	}{
		{ring, scheduler.CentralPolicy},
		{ring, scheduler.DistributedPolicy},
		{trans, scheduler.DistributedPolicy},
		{h, scheduler.DistributedPolicy},
		{newManyCoins(t, 5, 4, 97), scheduler.DistributedPolicy},
	}
}

// checkPalette compares got's probabilities with want's (nil: got is the
// first) and checks that a coded palette is exactly the sorted set of the
// values its codes select (all positive, so palCmp's order is <).
func checkPalette(t *testing.T, label string, want, got *statespace.Space) {
	t.Helper()
	_, _, p := got.CSR()
	if p.Coded() {
		values := probValues(got)
		slices.Sort(values)
		if values = slices.Compact(values); !slices.Equal(values, p.Palette()) {
			t.Fatalf("%s: palette %v, want the sorted distinct values %v", label, p.Palette(), values)
		}
	}
	if want == nil {
		return
	}
	if !sameProbs(want, got) {
		t.Fatalf("%s: palette or codes differ from 1 worker", label)
	}
}

// TestPaletteStitchWorkerInvariance: the full-range build's merged
// palette and remapped codes are identical at 1, 2 and 5 workers.
func TestPaletteStitchWorkerInvariance(t *testing.T) {
	for _, in := range paletteInstances(t) {
		var base *statespace.Space
		for _, workers := range []int{1, 2, 5} {
			sp, err := statespace.Build(in.a, in.pol, statespace.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkPalette(t, fmt.Sprintf("%s/%s w=%d", in.a.Name(), in.pol.Name(), workers), base, sp)
			if base == nil {
				base = sp
			}
		}
	}
}

// TestPaletteSealWorkerInvariance: a frontier closure's palette and codes
// are identical at 1, 2 and 5 workers, whether it is explored in one wave
// or grown by a Builder in two and sealed after each.
func TestPaletteSealWorkerInvariance(t *testing.T) {
	for _, in := range paletteInstances(t) {
		enc, err := protocol.NewEncoder(in.a, 0)
		if err != nil {
			t.Fatal(err)
		}
		first, second := []int64{enc.Total() - 1}, []int64{enc.Total() / 3, enc.Total() / 2}
		var base, baseWave *statespace.Space
		for _, workers := range []int{1, 2, 5} {
			label := fmt.Sprintf("%s/%s w=%d", in.a.Name(), in.pol.Name(), workers)
			opt := statespace.Options{Workers: workers}
			b, err := statespace.NewBuilder(in.a, in.pol, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ExtendContext(t.Context(), first); err != nil {
				t.Fatal(err)
			}
			wave := b.Seal()
			if err := b.ExtendContext(t.Context(), second); err != nil {
				t.Fatal(err)
			}
			sealed := b.Seal()
			once, err := statespace.BuildFromContext(t.Context(), in.a, in.pol, append(first, second...), opt)
			if err != nil {
				t.Fatal(err)
			}
			checkPalette(t, label+" first wave", baseWave, wave)
			checkPalette(t, label+" sealed", base, sealed)
			checkPalette(t, label+" one wave", sealed, once)
			if base == nil {
				base, baseWave = sealed, wave
			}
		}
	}
}
