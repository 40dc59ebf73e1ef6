package statespace

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/centers"
	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/transformer"
)

// instances returns one small instance of every algorithm in the library,
// probabilistic ones included.
func instances(t testing.TB) []protocol.Algorithm {
	t.Helper()
	ring5, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	chain5, err := graph.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(chain5)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	col, err := coloring.New(ring5)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := herman.New(5)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := centers.NewFinder(chain5)
	if err != nil {
		t.Fatal(err)
	}
	el, err := centers.NewElector(chain5)
	if err != nil {
		t.Fatal(err)
	}
	return []protocol.Algorithm{
		tr, lt, sp, col, dk, hm, fin, el, transformer.New(tr),
	}
}

func policies() []scheduler.Policy {
	return []scheduler.Policy{
		scheduler.CentralPolicy,
		scheduler.DistributedPolicy,
		scheduler.SynchronousPolicy,
	}
}

// TestBuildMatchesReference checks that the parallel engine reproduces the
// seed-era enumeration exactly: same legitimacy vector, same sorted
// successor rows, identical probability sums. tokenring(7) and herman(7)
// add distributed rows of up to 127 subsets. herman's stay outcomes, like
// the transformer's (instances' Trans(tokenring(5))), tie "not activated"
// under the distributed daemon, so their rows sum entries that share a
// target; herman(9)'s, of up to 3^9-1 entries, are the largest shipped.
func TestBuildMatchesReference(t *testing.T) {
	tr7, err := tokenring.New(7)
	if err != nil {
		t.Fatal(err)
	}
	hm7, err := herman.New(7)
	if err != nil {
		t.Fatal(err)
	}
	hm9, err := herman.New(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(instances(t), tr7, hm7, hm9) {
		pols := policies()
		if a == hm9 {
			pols = []scheduler.Policy{scheduler.DistributedPolicy}
		}
		for _, pol := range pols {
			ref, err := BuildReference(a, pol, 0)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", a.Name(), pol.Name(), err)
			}
			got, err := Build(a, pol, Options{Workers: 3})
			if err != nil {
				t.Fatalf("%s/%s: build: %v", a.Name(), pol.Name(), err)
			}
			assertEqualSpaces(t, a.Name()+"/"+pol.Name(), ref, got)
		}
	}
}

// TestBuildDeterministicAcrossWorkers checks bit-identical output for 1, 2
// and 7 workers.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.DistributedPolicy
	base, err := Build(a, pol, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		got, err := Build(a, pol, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertEqualSpaces(t, "workers", base, got)
	}
}

func assertEqualSpaces(t *testing.T, label string, want, got *Space) {
	t.Helper()
	if got.States != want.States {
		t.Fatalf("%s: states %d, want %d", label, got.States, want.States)
	}
	if got.Edges() != want.Edges() {
		t.Fatalf("%s: edges %d, want %d", label, got.Edges(), want.Edges())
	}
	for s := 0; s < want.States; s++ {
		if got.Legit[s] != want.Legit[s] {
			t.Fatalf("%s: state %d legitimacy %v, want %v", label, s, got.Legit[s], want.Legit[s])
		}
		ws, gs := want.Succ(s), got.Succ(s)
		wp, gp := probRow(want, s), probRow(got, s)
		if len(gs) != len(ws) {
			t.Fatalf("%s: state %d has %d successors, want %d", label, s, len(gs), len(ws))
		}
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("%s: state %d successor %d = %d, want %d", label, s, i, gs[i], ws[i])
			}
			if gp[i] != wp[i] {
				t.Fatalf("%s: state %d prob[%d] = %g, want %g", label, s, i, gp[i], wp[i])
			}
		}
	}
}

// probRow returns the probabilities of the row of s.
func probRow(sp *Space, s int) []float64 {
	var out []float64
	for e := sp.off[s]; e < sp.off[s+1]; e++ {
		out = append(out, sp.probs.At(e))
	}
	return out
}

// TestRowInvariants checks CSR well-formedness: rows sorted strictly
// ascending, probabilities positive, non-terminal rows summing to 1.
func TestRowInvariants(t *testing.T) {
	for _, a := range instances(t) {
		for _, pol := range policies() {
			sp, err := Build(a, pol, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name(), pol.Name(), err)
			}
			for s := 0; s < sp.States; s++ {
				succ, prob := sp.Succ(s), probRow(sp, s)
				if len(succ) == 0 {
					if !sp.IsTerminal(s) {
						t.Fatalf("%s/%s: state %d empty but not terminal", a.Name(), pol.Name(), s)
					}
					continue
				}
				sum := 0.0
				for i := range succ {
					if i > 0 && succ[i] <= succ[i-1] {
						t.Fatalf("%s/%s: state %d row not strictly ascending", a.Name(), pol.Name(), s)
					}
					if int(succ[i]) < 0 || int(succ[i]) >= sp.States {
						t.Fatalf("%s/%s: state %d successor %d out of range", a.Name(), pol.Name(), s, succ[i])
					}
					if prob[i] <= 0 {
						t.Fatalf("%s/%s: state %d has non-positive probability %g", a.Name(), pol.Name(), s, prob[i])
					}
					sum += prob[i]
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("%s/%s: state %d row sums to %g", a.Name(), pol.Name(), s, sum)
				}
			}
		}
	}
}

// TestTerminalAgreement checks IsTerminal against a direct protocol query.
func TestTerminalAgreement(t *testing.T) {
	a, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Build(a, scheduler.CentralPolicy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sp.States; s++ {
		if sp.IsTerminal(s) != protocol.IsTerminal(a, sp.Config(s)) {
			t.Fatalf("state %d: terminal disagreement", s)
		}
	}
}

// TestMaxStatesCap checks the cap is honored with the same error shape the
// pre-engine explorers produced.
func TestMaxStatesCap(t *testing.T) {
	a, err := tokenring.New(6) // 4^6 = 4096 configurations
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(a, scheduler.CentralPolicy, Options{MaxStates: 100}); err == nil {
		t.Fatal("expected cap error")
	}
	if _, err := BuildReference(a, scheduler.CentralPolicy, 100); err == nil {
		t.Fatal("expected cap error from reference")
	}
}

// badOutcome is a misbehaving algorithm: process 0's action claims a next
// state outside its domain. The engine must reject it with a clean error.
type badOutcome struct {
	protocol.Algorithm
	empty bool // return no outcomes instead of an out-of-domain one
}

func (b badOutcome) Outcomes(cfg protocol.Configuration, p, action int) []protocol.Outcome {
	if b.empty {
		return nil
	}
	return []protocol.Outcome{{State: b.Algorithm.StateCount(p), Prob: 1}}
}

// TestBuildRejectsInvalidOutcomes checks out-of-domain and empty outcome
// sets surface as errors, not panics or aliased state indexes.
func TestBuildRejectsInvalidOutcomes(t *testing.T) {
	inner, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		alg  protocol.Algorithm
	}{
		{"out-of-domain", badOutcome{Algorithm: inner}},
		{"empty", badOutcome{Algorithm: inner, empty: true}},
	} {
		if _, err := Build(tc.alg, scheduler.CentralPolicy, Options{Workers: 2}); err == nil {
			t.Fatalf("%s: expected error from Build", tc.name)
		}
	}
}
