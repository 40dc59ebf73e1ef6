package statespace

// Tests of the explorer's ordered row emission: every row exploreState
// emits must equal the stable merge of the plain enumeration bit for bit.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/transformer"
)

// rowAlg is a table algorithm for one configuration: process p has
// radix[p] states and, when outs[p] is non-nil, one enabled action with
// those outcomes.
type rowAlg struct {
	g     *graph.Graph
	radix []int
	outs  [][]protocol.Outcome
}

func (a *rowAlg) Name() string         { return "rowalg" }
func (a *rowAlg) Graph() *graph.Graph  { return a.g }
func (a *rowAlg) StateCount(p int) int { return a.radix[p] }
func (a *rowAlg) EnabledAction(_ protocol.Configuration, p int) int {
	if a.outs[p] == nil {
		return protocol.Disabled
	}
	return 0
}
func (a *rowAlg) Outcomes(_ protocol.Configuration, p, _ int) []protocol.Outcome { return a.outs[p] }
func (a *rowAlg) ActionName(int) string                                          { return "step" }
func (a *rowAlg) Legitimate(protocol.Configuration) bool                         { return false }

// rowDetAlg is a rowAlg whose outcome lists are all single, explored
// through the Deterministic fast path.
type rowDetAlg struct{ *rowAlg }

func (a rowDetAlg) DeterministicExecute(_ protocol.Configuration, p, _ int) int {
	return a.outs[p][0].State
}

// orderVals are outcome probabilities whose sums and products depend on
// the order they are taken in.
var orderVals = []float64{0.1, 0.2, 0.3, 1.0 / 3, 1e-17}

// randomRow draws a configuration of up to 12 processes of radix 2–9 with
// 1–12 of them enabled. A "clean" draw gives each position distinct
// outcomes that all move it; otherwise an outcome keeps the state with
// probability at least 1/3, and outcomes may repeat a state. A "multi"
// draw gives positions up to 3 outcomes (capped so a distributed row
// stays near 2^13 entries); otherwise every position has one, and half of
// those draws take the Deterministic path.
func randomRow(rng *rand.Rand) (protocol.Algorithm, protocol.Configuration) {
	n := 1 + rng.Intn(12)
	edges := make([][2]int, n-1)
	for p := range edges {
		edges[p] = [2]int{p, p + 1}
	}
	a := &rowAlg{g: graph.MustFromEdges(n, edges), radix: make([]int, n), outs: make([][]protocol.Outcome, n)}
	cfg := make(protocol.Configuration, n)
	for p := range n {
		a.radix[p] = 2 + rng.Intn(8)
		cfg[p] = rng.Intn(a.radix[p])
	}
	enabled := rng.Perm(n)[:1+rng.Intn(n)]
	clean, multi := rng.Intn(2) == 0, rng.Intn(2) == 0
	size := 1
	for _, p := range enabled {
		m := 1
		if multi {
			m = 1 + rng.Intn(3)
		}
		states := make([]int, m)
		if clean {
			states = slices.DeleteFunc(rng.Perm(a.radix[p]), func(s int) bool { return s == cfg[p] })
			m = min(m, len(states))
		} else {
			for i := range states {
				states[i] = rng.Intn(a.radix[p])
				if rng.Intn(3) == 0 {
					states[i] = cfg[p]
				}
			}
		}
		for m > 1 && size*(m+1) > 1<<13 {
			m--
		}
		size *= m + 1
		for _, s := range states[:m] {
			prob := 1.0
			if m > 1 {
				prob = orderVals[rng.Intn(len(orderVals))]
			}
			a.outs[p] = append(a.outs[p], protocol.Outcome{State: s, Prob: prob})
		}
	}
	if !multi && rng.Intn(2) == 0 {
		return rowDetAlg{a}, cfg
	}
	return a, cfg
}

// repeatRow draws a row of the shape randomRow almost never gives (its
// repeats come only from draws that also keep the state a third of the
// time): up to 6 processes of radix 2–9, each enabled one with 2 or 3
// outcomes of which none keeps the state, the first enabled position's
// first two the same state. The repeat is then a tie with no self-loop in
// the row.
func repeatRow(rng *rand.Rand) (protocol.Algorithm, protocol.Configuration) {
	n := 1 + rng.Intn(6)
	edges := make([][2]int, n-1)
	for p := range edges {
		edges[p] = [2]int{p, p + 1}
	}
	a := &rowAlg{g: graph.MustFromEdges(n, edges), radix: make([]int, n), outs: make([][]protocol.Outcome, n)}
	cfg := make(protocol.Configuration, n)
	for p := range n {
		a.radix[p] = 2 + rng.Intn(8)
		cfg[p] = rng.Intn(a.radix[p])
	}
	for i, p := range rng.Perm(n)[:1+rng.Intn(n)] {
		for j := range 2 + rng.Intn(2) {
			s := (cfg[p] + 1 + rng.Intn(a.radix[p]-1)) % a.radix[p]
			if i == 0 && j == 1 {
				s = a.outs[p][0].State
			}
			a.outs[p] = append(a.outs[p], protocol.Outcome{State: s, Prob: orderVals[rng.Intn(len(orderVals))]})
		}
	}
	return a, cfg
}

// edge is one entry of a row before the merge: its global target and its
// probability.
type edge struct {
	to int64
	p  float64
}

// stableMerge is the reference merge: a stable sort by target, then
// per-target sums in enumeration order.
func stableMerge(row []edge) ([]int64, []float64) {
	row = slices.Clone(row)
	slices.SortStableFunc(row, func(a, b edge) int { return cmp.Compare(a.to, b.to) })
	var to []int64
	var p []float64
	for i := 0; i < len(row); {
		t, sum := row[i].to, row[i].p
		for i++; i < len(row) && row[i].to == t; i++ {
			sum += row[i].p
		}
		to = append(to, t)
		p = append(p, sum)
	}
	return to, p
}

// plainRow is the row before any merge: per mask in list order, an
// odometer over the activated positions' outcomes in Outcomes order (the
// last position varying fastest), each entry weighing w times its outcome
// probabilities in ascending position order — w alone when every enabled
// process has one outcome.
func plainRow(a protocol.Algorithm, enc *protocol.Encoder, cfg protocol.Configuration, masks []uint64) []edge {
	var enabled []int
	var outs [][]protocol.Outcome
	det := true
	for p := range cfg {
		if act := a.EnabledAction(cfg, p); act != protocol.Disabled {
			enabled = append(enabled, p)
			outs = append(outs, a.Outcomes(cfg, p, act))
			det = det && len(outs[len(outs)-1]) == 1
		}
	}
	g := enc.Encode(cfg)
	w := 1 / float64(len(masks))
	var row []edge
	for _, m := range masks {
		var act []int
		for i := range enabled {
			if m&(1<<i) != 0 {
				act = append(act, i)
			}
		}
		odo := make([]int, len(act))
		for {
			to, p := g, w
			for j, i := range act {
				o := outs[i][odo[j]]
				to += int64(o.State-cfg[enabled[i]]) * enc.Weight(enabled[i])
				if !det {
					p *= o.Prob
				}
			}
			row = append(row, edge{to: to, p: p})
			j := len(act) - 1
			for ; j >= 0; j-- {
				if odo[j]++; odo[j] < len(outs[act[j]]) {
					break
				}
				odo[j] = 0
			}
			if j < 0 {
				break
			}
		}
	}
	return row
}

// checkRow explores cfg under pol with a fresh explorer and compares the
// emitted row with the stable merge of plainRow bit for bit. It reports
// whether two entries of the plain row shared a target.
func checkRow(t testing.TB, a protocol.Algorithm, cfg protocol.Configuration, pol scheduler.Policy) bool {
	t.Helper()
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplorer(a, pol, enc)
	ex.cfg = slices.Clone(cfg)
	g := enc.Encode(cfg)
	if _, err := ex.exploreState(g); err != nil {
		t.Fatal(err)
	}
	plain := plainRow(a, enc, cfg, pol.SubsetMasks(len(ex.enabled)))
	wantTo, wantP := stableMerge(plain)
	if !slices.Equal(ex.outTo, wantTo) {
		t.Fatalf("%s at %v: targets %v, want %v", pol.Name(), cfg, ex.outTo, wantTo)
	}
	for i := range wantP {
		if math.Float64bits(ex.outP[i]) != math.Float64bits(wantP[i]) {
			t.Fatalf("%s at %v: target %d weighs %v, want %v", pol.Name(), cfg, wantTo[i], ex.outP[i], wantP[i])
		}
	}
	return len(plain) > len(wantTo)
}

func TestOrderedRowsMatchStableMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	tied := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		a, cfg := randomRow(rng)
		for _, pol := range policies() {
			if checkRow(t, a, cfg, pol) {
				tied[pol.Name()]++
			}
		}
	}
	repeats := map[string]int{}
	rng = rand.New(rand.NewSource(41)) // randomRow's draws above stay as they were
	for trial := 0; trial < 100; trial++ {
		a, cfg := repeatRow(rng)
		for _, pol := range policies() {
			if checkRow(t, a, cfg, pol) {
				repeats[pol.Name()]++
			}
		}
	}
	t.Logf("rows with a shared target %v, repeat rows with one %v", tied, repeats)
	for _, pol := range policies() {
		if tied[pol.Name()] == 0 || repeats[pol.Name()] == 0 {
			t.Errorf("%s: %d rows and %d repeat rows with a shared target", pol.Name(), tied[pol.Name()], repeats[pol.Name()])
		}
	}
}

func FuzzRowOrder(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(seed))
	}
	pols := policies()
	f.Fuzz(func(t *testing.T, seed int64, pol uint8) {
		a, cfg := randomRow(rand.New(rand.NewSource(seed)))
		checkRow(t, a, cfg, pols[int(pol)%len(pols)])
	})
}

// TestDaemonRowsNeedNoMerge explores the report-full instances whose rows
// a sort and merge dominated before rows were emitted in order, and
// requires every row to come out strictly ascending.
func TestDaemonRowsNeedNoMerge(t *testing.T) {
	tr9, err := tokenring.NewWithModulus(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr11, err := tokenring.NewWithModulus(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	hm11, err := herman.New(11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a   protocol.Algorithm
		pol scheduler.Policy
	}{
		{tr9, scheduler.DistributedPolicy},
		{tr11, scheduler.CentralPolicy},
		{hm11, scheduler.SynchronousPolicy},
	} {
		t.Run(fmt.Sprintf("%s/%s", c.a.Name(), c.pol.Name()), func(t *testing.T) {
			enc, err := protocol.NewEncoder(c.a, 0)
			if err != nil {
				t.Fatal(err)
			}
			total := int(enc.Total())
			deg := make([]int64, total)
			ck, err := newExplorer(c.a, c.pol, enc).exploreRange(0, total, make([]bool, total), deg)
			if err != nil {
				t.Fatal(err)
			}
			row := ck.succ
			for s, d := range deg {
				for j := int64(1); j < d; j++ {
					if row[j-1] >= row[j] {
						t.Fatalf("state %d: row %v not strictly ascending", s, row[:d])
					}
				}
				row = row[d:]
			}
		})
	}
}

// TestDistributedLimitIsAnError explores a one-configuration algorithm
// whose processes are all enabled, one more of them than the distributed
// daemon enumerates: both engines refuse it with an error naming the
// limit, and the other daemons explore it.
func TestDistributedLimitIsAnError(t *testing.T) {
	n := scheduler.DistributedLimit + 1
	edges := make([][2]int, n-1)
	for p := range edges {
		edges[p] = [2]int{p, p + 1}
	}
	a := &rowAlg{g: graph.MustFromEdges(n, edges), radix: make([]int, n), outs: make([][]protocol.Outcome, n)}
	for p := range n {
		a.radix[p] = 1
		a.outs[p] = []protocol.Outcome{{State: 0, Prob: 1}}
	}
	want := fmt.Sprintf("%d enabled processes exceed the distributed daemon's limit of %d", n, scheduler.DistributedLimit)
	for _, pol := range policies() {
		_, err := Build(a, pol, Options{Workers: 1})
		_, ferr := BuildFromContext(t.Context(), a, pol, []int64{0}, Options{Workers: 1})
		for _, err := range []error{err, ferr} {
			if pol != scheduler.DistributedPolicy {
				if err != nil {
					t.Fatalf("%s: %v", pol.Name(), err)
				}
			} else if err == nil || !strings.HasPrefix(err.Error(), "statespace: ") || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %v, want one containing %q", pol.Name(), err, want)
			}
		}
	}
}

// BenchmarkBuildRows times a 1-worker build of the instances whose rows
// dominate their build: the report-full daemons' rows, and the tie rows
// of herman and the transformer under the distributed daemon.
func BenchmarkBuildRows(b *testing.B) {
	tr9, _ := tokenring.NewWithModulus(9, 3)
	tr11, _ := tokenring.NewWithModulus(11, 3)
	tr7, _ := tokenring.New(7)
	hm9, _ := herman.New(9)
	hm11, _ := herman.New(11)
	for _, c := range []struct {
		a   protocol.Algorithm
		pol scheduler.Policy
	}{
		{tr11, scheduler.CentralPolicy},
		{tr9, scheduler.DistributedPolicy},
		{hm11, scheduler.SynchronousPolicy},
		{hm9, scheduler.DistributedPolicy},
		{transformer.New(tr7), scheduler.DistributedPolicy},
	} {
		b.Run(fmt.Sprintf("%s/%s", c.a.Name(), c.pol.Name()), func(b *testing.B) {
			for b.Loop() {
				if _, err := Build(c.a, c.pol, Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
