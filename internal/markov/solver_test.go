package markov

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// solverCases enumerates small algorithm × policy instances covering every
// structural shape the solver sees: deterministic and probabilistic
// chains, single-block and many-block condensations, and instances with
// divergent (+Inf) states.
func solverCases(t *testing.T) []*statespace.Space {
	t.Helper()
	var algs []protocol.Algorithm
	for _, n := range []int{3, 4, 5} {
		a, err := tokenring.New(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a, transformer.New(a))
	}
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	algs = append(algs, sp, transformer.New(sp))
	h3, err := herman.New(3)
	if err != nil {
		t.Fatal(err)
	}
	algs = append(algs, h3)
	policies := []scheduler.Policy{
		scheduler.CentralPolicy,
		scheduler.DistributedPolicy,
		scheduler.SynchronousPolicy,
	}
	var spaces []*statespace.Space
	for _, a := range algs {
		for _, pol := range policies {
			ts, err := statespace.Build(a, pol, statespace.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name(), pol.Name(), err)
			}
			spaces = append(spaces, ts)
		}
	}
	return spaces
}

func assertHittingTimesMatch(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for s := range got {
		gi, wi := math.IsInf(got[s], 1), math.IsInf(want[s], 1)
		if gi != wi {
			t.Fatalf("%s: state %d: got %g, want %g", label, s, got[s], want[s])
		}
		if gi {
			continue
		}
		if diff := math.Abs(got[s] - want[s]); diff > 1e-9*math.Max(1, math.Abs(want[s])) {
			t.Fatalf("%s: state %d: got %.15g, want %.15g (diff %g)", label, s, got[s], want[s], diff)
		}
	}
}

// TestHittingTimesMatchesDenseOracle pins the sparse SCC solver against
// the whole-system dense elimination oracle on every case, for both the
// one-worker solve and the 4-worker one (id order or level schedule,
// whichever the case's block kinds choose).
func TestHittingTimesMatchesDenseOracle(t *testing.T) {
	for _, ts := range solverCases(t) {
		label := ts.Alg.Name() + "/" + ts.Pol.Name()
		chain, err := FromSpace(ts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		target := TargetFromSpace(ts)
		want, err := chain.hittingTimesDense(target)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		chain.workers = 1
		serial, err := chain.HittingTimes(target)
		if err != nil {
			t.Fatalf("%s: serial: %v", label, err)
		}
		assertHittingTimesMatch(t, label+" (serial)", serial, want)
		chain.workers = 4
		parallel, err := chain.HittingTimes(target)
		if err != nil {
			t.Fatalf("%s: parallel: %v", label, err)
		}
		// Block solves read identical inputs in every schedule, so the
		// parallel result is bit-identical, not merely close.
		for s := range parallel {
			if parallel[s] != serial[s] && !(math.IsInf(parallel[s], 1) && math.IsInf(serial[s], 1)) {
				t.Fatalf("%s: worker count changed h[%d]: %.17g vs %.17g", label, s, parallel[s], serial[s])
			}
		}
	}
}

// TestLevelScheduleBitIdentical pins the pooled level schedule to the
// serial id-order solve bit for bit at 2, 3 and 8 workers. The cases'
// condensations are DAGs of singleton blocks (dijkstra, coloring), a DAG
// around large strongly connected blocks (tokenring) and a probabilistic
// chain (herman). Every block-solve path is forced in turn, every case
// takes the level schedule whatever its block kinds, and levelGrain is
// lowered so that every level of more than one block splits into several
// concurrently solved chunks.
func TestLevelScheduleBitIdentical(t *testing.T) {
	forceLevelSchedule(t)
	saveDense, savePar, saveGrain := denseBlockLimit, parallelBlockMin, levelGrain
	defer func() { denseBlockLimit, parallelBlockMin, levelGrain = saveDense, savePar, saveGrain }()
	must := func(a protocol.Algorithm, err error) protocol.Algorithm {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ring6, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		alg protocol.Algorithm
		pol scheduler.Policy
	}{
		{must(dijkstra.New(5, 5)), scheduler.CentralPolicy},
		{must(dijkstra.New(5, 5)), scheduler.DistributedPolicy},
		{must(coloring.New(ring6)), scheduler.DistributedPolicy},
		{must(tokenring.NewWithModulus(7, 3)), scheduler.CentralPolicy},
		{must(herman.New(5)), scheduler.SynchronousPolicy},
	}
	for _, cs := range cases {
		ts, err := statespace.Build(cs.alg, cs.pol, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		chain, err := FromSpace(ts)
		if err != nil {
			t.Fatal(err)
		}
		target := TargetFromSpace(ts)
		for _, mode := range []string{"dense", "sequential-gs", "red-black-gs"} {
			denseBlockLimit, parallelBlockMin = saveDense, savePar
			switch mode {
			case "sequential-gs":
				denseBlockLimit = 1
			case "red-black-gs":
				denseBlockLimit, parallelBlockMin = 1, 2
			}
			label := mode + "/" + ts.Alg.Name() + "/" + ts.Pol.Name()
			chain.workers = 1
			want, err := chain.HittingTimesContext(t.Context(), target)
			if err != nil {
				t.Fatalf("%s: serial: %v", label, err)
			}
			for _, grain := range []int{1, 5} {
				levelGrain = grain
				for _, workers := range []int{2, 3, 8} {
					chain.workers = workers
					got, err := chain.HittingTimesContext(t.Context(), target)
					if err != nil {
						t.Fatalf("%s: workers=%d: %v", label, workers, err)
					}
					if !sameBits(got, want) {
						t.Fatalf("%s: levelGrain=%d workers=%d: hitting times differ from the serial solve", label, grain, workers)
					}
				}
			}
			levelGrain = saveGrain
		}
	}
}

// TestSolverMetrics pins the solver's block counters and size histogram
// on a chain with one block of every kind — a singleton feeding a dense
// 3-cycle feeding a 40-state Gauss–Seidel cycle — at 1 and 4 workers.
func TestSolverMetrics(t *testing.T) {
	const gsSize, target = 40, 44
	rows := make([][]arc, target+1)
	for i := 0; i < gsSize; i++ {
		rows[i] = []arc{{(i + 1) % gsSize, 0.5}, {target, 0.5}}
	}
	for i := gsSize; i < gsSize+3; i++ {
		rows[i] = []arc{{gsSize + (i-gsSize+1)%3, 0.5}, {0, 0.5}}
	}
	rows[gsSize+3] = []arc{{gsSize, 1}}
	c := chainOf(t, rows)
	isTarget := make([]bool, target+1)
	isTarget[target] = true
	for _, workers := range []int{1, 4} {
		o := obs.NewWithRegistry(nil)
		prev := obs.SetDefault(o)
		c.workers = workers
		_, err := c.HittingTimes(isTarget)
		obs.SetDefault(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := o.Registry().Snapshot()
		want := map[string]int64{
			"solver.blocks.singleton":   1,
			"solver.blocks.dense":       1,
			"solver.blocks.gs":          1,
			"solver.block_states.count": 3,
			"solver.block_states.sum":   1 + 3 + gsSize,
			"solver.block_states.max":   gsSize,
		}
		for name, v := range want {
			if got[name] != v {
				t.Errorf("workers=%d: %s = %d, want %d", workers, name, got[name], v)
			}
		}
		if got["solver.gs_sweeps"] <= 0 {
			t.Errorf("workers=%d: solver.gs_sweeps = %d, want > 0", workers, got["solver.gs_sweeps"])
		}
		if hs := o.Histogram("solver.block_states").Snapshot(); !maps.Equal(hs.Buckets, map[int]int64{1: 1, 2: 1, 6: 1}) {
			t.Errorf("workers=%d: block-size buckets %v", workers, hs.Buckets)
		}
	}
}

// TestHittingTimesForcedGaussSeidel lowers the dense-block limit to 1 so
// every non-singleton SCC runs the Gauss–Seidel path (and, with
// parallelBlockMin dropped, the red-black colored scheme), then re-checks
// parity with the dense oracle.
func TestHittingTimesForcedGaussSeidel(t *testing.T) {
	saveDense, savePar := denseBlockLimit, parallelBlockMin
	defer func() { denseBlockLimit, parallelBlockMin = saveDense, savePar }()
	for _, name := range []string{"sequential-gs", "red-black-gs"} {
		denseBlockLimit = 1
		if name == "red-black-gs" {
			parallelBlockMin = 2
		} else {
			parallelBlockMin = savePar
		}
		for _, ts := range solverCases(t) {
			label := name + "/" + ts.Alg.Name() + "/" + ts.Pol.Name()
			chain, err := FromSpace(ts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			target := TargetFromSpace(ts)
			want, err := chain.hittingTimesDense(target)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			chain.workers = 4
			got, err := chain.HittingTimes(target)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertHittingTimesMatch(t, label, got, want)
		}
	}
}

// TestHittingTimesDivergentStates exercises the +Inf path: states that
// reach an absorbing trap with positive probability have infinite expected
// hitting time, while the solver still resolves the prob-one region
// exactly.
func TestHittingTimesDivergentStates(t *testing.T) {
	// 0 -> {1, 2} fair coin; 1 -> target 3 w.p. 1; 2 is an absorbing trap.
	// 4 -> 1 w.p. 1 stays prob-one despite its neighbors.
	c := chainOf(t, [][]arc{{{1, 0.5}, {2, 0.5}}, {{3, 1}}, nil, nil, {{1, 1}}})
	target := []bool{false, false, false, true, false}
	h, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(h[0], 1) || !math.IsInf(h[2], 1) {
		t.Fatalf("divergent states must be +Inf: %v", h)
	}
	if math.Abs(h[1]-1) > 1e-12 || math.Abs(h[4]-2) > 1e-12 || h[3] != 0 {
		t.Fatalf("prob-one region wrong: %v", h)
	}
	want, err := c.hittingTimesDense(target)
	if err != nil {
		t.Fatal(err)
	}
	assertHittingTimesMatch(t, "divergent", h, want)
}

// TestHittingTimesLargeDAGChain solves a 200000-transient-state chain of
// singleton components (countdown with fair self-loops, h(i) = 2i) — far
// past the old dense limit, with no iteration at all: pure forward
// substitution over the condensation DAG.
func TestHittingTimesLargeDAGChain(t *testing.T) {
	const n = 200_001
	c := countdownChain(t, n)
	target := make([]bool, n)
	target[0] = true
	h, err := c.HittingTimes(target)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 1000, 99_999, n - 1} {
		want := 2 * float64(i)
		if math.Abs(h[i]-want) > 1e-9*want {
			t.Fatalf("h(%d) = %.15g, want %g", i, h[i], want)
		}
	}
}

// TestHittingTimesLargeSCCBlock solves a single strongly connected block
// of 150000 states (a directed cycle with escape probability 1/2 per
// step, so h = 2 everywhere) — one SCC above parallelBlockMin, exercising
// the red-black parallel Gauss–Seidel at scale.
func TestHittingTimesLargeSCCBlock(t *testing.T) {
	const m = 150_000
	n := m + 1
	rows := make([][]arc, n)
	for i := 0; i < m; i++ {
		rows[i] = []arc{{(i + 1) % m, 0.5}, {m, 0.5}}
	}
	c := chainOf(t, rows)
	target := make([]bool, n)
	target[m] = true
	for _, workers := range []int{1, 4} {
		c.workers = workers
		h, err := c.HittingTimes(target)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, i := range []int{0, 1, m / 2, m - 1} {
			if math.Abs(h[i]-2) > 1e-9 {
				t.Fatalf("workers=%d: h(%d) = %.15g, want 2", workers, i, h[i])
			}
		}
	}
}

// TestConcurrentAnalysesOnBuilderChain runs analyses of one FromCSR
// chain from several goroutines: the lazily built reverse view must be
// safe under concurrent readers.
func TestConcurrentAnalysesOnBuilderChain(t *testing.T) {
	const n = 3000
	c := countdownChain(t, n)
	target := make([]bool, n)
	target[0] = true
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := c.HittingTimes(target)
			if err != nil {
				errs[g] = err
				return
			}
			if math.Abs(h[n-1]-2*float64(n-1)) > 1e-9*float64(n) {
				errs[g] = fmt.Errorf("h(%d) = %g", n-1, h[n-1])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
