package statespace

// Tests of the explorer's ordered row emission: every row exploreState
// emits, in order or through the fallback merge, must equal the stable
// merge of the plain enumeration bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
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

// maskPolicy is a test policy with an arbitrary mask list.
type maskPolicy struct {
	name  string
	masks func(k int) []uint64
}

func (m maskPolicy) Name() string               { return m.name }
func (m maskPolicy) SubsetMasks(k int) []uint64 { return m.masks(k) }

// rowPolicies are the three daemons, the central singletons in reverse
// order (still central, but a different self-loop summation order) and a
// list of no daemon's shape: the singletons, the full mask and the first
// singleton again.
func rowPolicies() []scheduler.Policy {
	return []scheduler.Policy{
		scheduler.CentralPolicy{},
		scheduler.DistributedPolicy{},
		scheduler.SynchronousPolicy{},
		maskPolicy{"central-reversed", func(k int) []uint64 {
			m := scheduler.CentralPolicy{}.SubsetMasks(k)
			slices.Reverse(m)
			return m
		}},
		maskPolicy{"singletons-all-first", func(k int) []uint64 {
			return append(scheduler.CentralPolicy{}.SubsetMasks(k), 1<<k-1, 1)
		}},
	}
}

// checkRow explores cfg under pol with a fresh explorer and compares the
// emitted row with the stable merge of plainRow bit for bit. It returns
// the explorer so callers can read which path the row took.
func checkRow(t testing.TB, a protocol.Algorithm, cfg protocol.Configuration, pol scheduler.Policy) *explorer {
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
	wantTo, wantP := stableMerge(plainRow(a, enc, cfg, pol.SubsetMasks(len(ex.enabled))))
	if !slices.Equal(ex.outTo, wantTo) {
		t.Fatalf("%s at %v: targets %v, want %v", pol.Name(), cfg, ex.outTo, wantTo)
	}
	for i := range wantP {
		if math.Float64bits(ex.outP[i]) != math.Float64bits(wantP[i]) {
			t.Fatalf("%s at %v: target %d weighs %v, want %v", pol.Name(), cfg, wantTo[i], ex.outP[i], wantP[i])
		}
	}
	return ex
}

func TestOrderedRowsMatchStableMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ordered := map[string]int{}
	merged := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		a, cfg := randomRow(rng)
		for _, pol := range rowPolicies() {
			ex := checkRow(t, a, cfg, pol)
			ordered[pol.Name()] += ex.ordered
			merged[pol.Name()] += ex.merged
		}
	}
	t.Logf("ordered rows %v, merged rows %v", ordered, merged)
	for _, name := range []string{"central", "distributed", "synchronous", "central-reversed"} {
		if ordered[name] == 0 {
			t.Errorf("%s: no ordered row", name)
		}
	}
	if merged["distributed"] == 0 || merged["synchronous"] == 0 || merged["central"] == 0 {
		t.Errorf("daemon fallback rows %v: want some under each daemon", merged)
	}
	if ordered["singletons-all-first"] != 0 || merged["singletons-all-first"] == 0 {
		t.Errorf("a mask list of no daemon's shape took the ordered path")
	}
}

func FuzzRowOrder(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(seed))
	}
	pols := rowPolicies()
	f.Fuzz(func(t *testing.T, seed int64, pol uint8) {
		a, cfg := randomRow(rand.New(rand.NewSource(seed)))
		checkRow(t, a, cfg, pols[int(pol)%len(pols)])
	})
}

func TestMaskShape(t *testing.T) {
	for k := 1; k <= 10; k++ {
		want := map[scheduler.Policy]rowShape{
			scheduler.CentralPolicy{}:     shapeCentral,
			scheduler.DistributedPolicy{}: shapeDistributed,
			scheduler.SynchronousPolicy{}: shapeSynchronous,
		}
		if k == 1 {
			// One enabled process: every daemon's list is the one full mask.
			want[scheduler.CentralPolicy{}] = shapeSynchronous
			want[scheduler.DistributedPolicy{}] = shapeSynchronous
		}
		for pol, shape := range want {
			masks := pol.SubsetMasks(k)
			if got := maskShape(masks, k); got != shape {
				t.Fatalf("%s k=%d: shape %d, want %d", pol.Name(), k, got, shape)
			}
			if k > 1 {
				// The same count with one mask repeated is no daemon's list.
				bad := slices.Clone(masks)
				bad[len(bad)-1] = bad[0]
				if len(bad) > 1 && maskShape(bad, k) != shapeOther {
					t.Fatalf("%s k=%d: a repeated mask keeps shape %d", pol.Name(), k, shape)
				}
			}
		}
	}
	if got := maskShape([]uint64{1, 2, 4}, 3); got != shapeCentral {
		t.Fatalf("singletons: shape %d", got)
	}
	if got := maskShape([]uint64{1, 2, 8}, 3); got != shapeOther {
		t.Fatalf("a singleton beyond k: shape %d, want other", got)
	}
}

// TestDaemonRowsNeedNoMerge explores the report-full instances whose rows
// the fallback merge dominated before rows were emitted in order, and
// requires every row to take the ordered path.
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
		{tr9, scheduler.DistributedPolicy{}},
		{tr11, scheduler.CentralPolicy{}},
		{hm11, scheduler.SynchronousPolicy{}},
	} {
		t.Run(fmt.Sprintf("%s/%s", c.a.Name(), c.pol.Name()), func(t *testing.T) {
			enc, err := protocol.NewEncoder(c.a, 0)
			if err != nil {
				t.Fatal(err)
			}
			total := int(enc.Total())
			ex := newExplorer(c.a, c.pol, enc)
			if _, err := ex.exploreRange(0, total, make([]bool, total), make([]int64, total)); err != nil {
				t.Fatal(err)
			}
			if ex.merged != 0 || ex.ordered == 0 {
				t.Fatalf("%d rows merged, %d ordered; want every row ordered", ex.merged, ex.ordered)
			}
		})
	}
}
