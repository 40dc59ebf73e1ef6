// Benchmarks: one per paper experiment (E1..E12d regenerate the figures,
// theorem verdicts and the quantitative study in quick mode) plus
// micro-benchmarks of the engines (step execution, exhaustive exploration,
// exact hitting-time analysis).
package weakstab_test

import (
	"cmp"
	"io"
	"math/rand"
	"slices"
	"testing"

	"weakstab"
	"weakstab/internal/algorithms/centers"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/core"
	"weakstab/internal/experiments"
	"weakstab/internal/graph"
	"weakstab/internal/markov"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opt := experiments.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(b.Context(), io.Discard, opt); err != nil {
			b.Fatalf("%s failed: %v", id, err)
		}
	}
}

func BenchmarkE01Figure1TokenTrace(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE02Figure2LeaderTrace(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE03Figure3Livelock(b *testing.B)            { benchExperiment(b, "E3") }
func BenchmarkE04Thm1SyncEquivalence(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE05Thm2TokenWeak(b *testing.B)              { benchExperiment(b, "E5") }
func BenchmarkE06Thm3Impossibility(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE07Thm4LeaderWeak(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE08Thm6GoudaVsStrong(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE09Thm7RandomizedConvergence(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10Thm8Transformer(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11MemoryTable(b *testing.B)                { benchExperiment(b, "E11") }
func BenchmarkE12StabilizationTimeExact(b *testing.B)     { benchExperiment(b, "E12a") }
func BenchmarkE12StabilizationTimeMC(b *testing.B)        { benchExperiment(b, "E12b") }
func BenchmarkE12StabilizationTimeBias(b *testing.B)      { benchExperiment(b, "E12c") }
func BenchmarkE12StabilizationTimeBaselines(b *testing.B) { benchExperiment(b, "E12d") }
func BenchmarkE13FaultDistanceRecovery(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14RoundComplexity(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15SchedulerSpectrum(b *testing.B)          { benchExperiment(b, "E15") }
func BenchmarkE16CenterElection(b *testing.B)             { benchExperiment(b, "E16") }
func BenchmarkE17HittingTimeTails(b *testing.B)           { benchExperiment(b, "E17") }
func BenchmarkE18FrontierFaultBalls(b *testing.B)         { benchExperiment(b, "E18") }

// BenchmarkStepThroughput measures raw guarded-action step execution on a
// 64-process token ring under the distributed randomized scheduler.
func BenchmarkStepThroughput(b *testing.B) {
	alg, err := weakstab.NewTokenRing(64)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cfg := weakstab.RandomConfiguration(alg, rng)
	sched := weakstab.DistributedScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enabled := weakstab.EnabledProcesses(alg, cfg)
		if len(enabled) == 0 {
			b.Fatal("terminal configuration reached")
		}
		cfg = weakstab.Step(alg, cfg, sched.Select(i, cfg, enabled, rng), rng)
	}
}

// BenchmarkCheckerExplore measures exhaustive state-space construction for
// the 6-ring (4096 configurations) under the central policy.
func BenchmarkCheckerExplore(b *testing.B) {
	alg, err := weakstab.NewTokenRing(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := statespace.Build(alg, scheduler.CentralPolicy, statespace.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovHittingTimes measures exact expected-stabilization-time
// analysis (exploration + chain construction + linear solve) for the
// 6-ring.
func BenchmarkMarkovHittingTimes(b *testing.B) {
	alg, err := weakstab.NewTokenRing(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := statespace.Build(alg, scheduler.CentralPolicy, statespace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		chain, err := markov.FromSpace(ts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chain.HittingTimes(markov.TargetFromSpace(ts)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovSolve isolates the analysis layer: chain construction
// (zero-copy over a pre-built space) + probability-1 reachability + the
// SCC-condensed hitting-time solve, with no exploration in the loop. This
// is the quantity the sparse solver work targets.
func BenchmarkMarkovSolve(b *testing.B) {
	alg, err := weakstab.NewTokenRing(6)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := statespace.Build(alg, scheduler.CentralPolicy, statespace.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, err := markov.FromSpace(ts)
		if err != nil {
			b.Fatal(err)
		}
		target := markov.TargetFromSpace(ts)
		if _, err := chain.HittingTimes(target); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArc is one weighted transition of a hand-built benchmark chain.
type benchArc struct {
	to int
	p  float64
}

// benchChain builds the chain whose state s has the outgoing row rows[s]
// (a nil row is absorbing): each row is sorted by target and its duplicate
// targets are merged before the CSR goes to markov.FromCSR.
func benchChain(b *testing.B, rows [][]benchArc) *markov.Chain {
	off := make([]int64, len(rows)+1)
	var (
		succ []int32
		prob []float64
	)
	for s, r := range rows {
		slices.SortStableFunc(r, func(x, y benchArc) int { return cmp.Compare(x.to, y.to) })
		for i := 0; i < len(r); {
			to, p := r[i].to, r[i].p
			for i++; i < len(r) && r[i].to == to; i++ {
				p += r[i].p
			}
			succ = append(succ, int32(to))
			prob = append(prob, p)
		}
		off[s+1] = int64(len(succ))
	}
	c, err := markov.FromCSR(off, succ, prob)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkMarkovSolveLargeDAG solves a 200001-state chain of singleton
// SCCs (countdown with fair self-loops) — 2e5 transient states, which the
// pre-condensation solver could only hand to whole-system Gauss–Seidel.
func BenchmarkMarkovSolveLargeDAG(b *testing.B) {
	const n = 200_001
	rows := make([][]benchArc, n)
	for i := 1; i < n; i++ {
		rows[i] = []benchArc{{i - 1, 0.5}, {i, 0.5}}
	}
	c := benchChain(b, rows)
	target := make([]bool, n)
	target[0] = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HittingTimes(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovSolveWideDAG solves a layered DAG of singleton SCCs: 64
// levels of 4096 states, each state stepping to two states of the level
// below with probability 1/2 each, at the default worker count. Every
// level is thousands of independent one-state blocks, the shape on which
// handing blocks to workers one at a time costs more than solving them.
func BenchmarkMarkovSolveWideDAG(b *testing.B) {
	const levels, width = 64, 4096
	n := 1 + levels*width
	rows := make([][]benchArc, n)
	for l := 0; l < levels; l++ {
		for i := 0; i < width; i++ {
			next := []benchArc{{0, 1}}
			if l > 0 {
				below := 1 + (l-1)*width
				next = []benchArc{{below + i, 0.5}, {below + (i+1)%width, 0.5}}
			}
			rows[1+l*width+i] = next
		}
	}
	c := benchChain(b, rows)
	target := make([]bool, n)
	target[0] = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HittingTimes(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovSolveLargeSCC solves one 150000-state strongly connected
// block (directed cycle with escape probability 1/2), exercising the
// red-black Gauss–Seidel path at scale.
func BenchmarkMarkovSolveLargeSCC(b *testing.B) {
	const m = 150_000
	rows := make([][]benchArc, m+1)
	for i := 0; i < m; i++ {
		rows[i] = []benchArc{{(i + 1) % m, 0.5}, {m, 0.5}}
	}
	c := benchChain(b, rows)
	target := make([]bool, m+1)
	target[m] = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HittingTimes(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify measures the full classification pipeline on Algorithm
// 2 over the Figure 2 tree (2160 configurations, distributed policy).
func BenchmarkClassify(b *testing.B) {
	g := mustFigure2(b)
	alg, err := weakstab.NewLeaderElection(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := weakstab.Classify(alg, weakstab.DistributedPolicy())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.WeakStabilizing() {
			b.Fatal("classification changed")
		}
	}
}

func mustFigure2(b *testing.B) *weakstab.Graph {
	b.Helper()
	g, err := graph.FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 4}, {3, 4}, {4, 5}, {4, 6}, {5, 7},
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTransformedSimulation measures Monte-Carlo throughput of the
// transformed token ring (N=16) under the distributed scheduler.
func BenchmarkTransformedSimulation(b *testing.B) {
	inner, err := weakstab.NewTokenRing(16)
	if err != nil {
		b.Fatal(err)
	}
	alg := weakstab.Transform(inner)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := weakstab.Simulate(alg, weakstab.DistributedScheduler(),
			weakstab.RandomConfiguration(alg, rng), rng, 5_000_000)
		if !res.Converged {
			b.Fatal("simulation failed to converge")
		}
	}
}

// --- Exploration-engine throughput -----------------------------------------
//
// The statespace engine benchmarks compare the seed-era enumeration
// (BuildReference: per-subset successor materialization, map dedup,
// explored separately by checker and markov) against the shared parallel
// CSR engine at 1 worker and at GOMAXPROCS workers, on the larger spaces
// (leadertree on the Figure 2 tree, the centers elector, token rings).

func benchSpaceWith(b *testing.B, build func() (protocol.Algorithm, error), explore func(protocol.Algorithm) (*statespace.Space, error)) {
	b.Helper()
	alg, err := build()
	if err != nil {
		b.Fatal(err)
	}
	states := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := explore(alg)
		if err != nil {
			b.Fatal(err)
		}
		states = sp.States
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(states)*float64(b.N)/sec, "states/sec")
	}
}

func benchSpace(b *testing.B, build func() (protocol.Algorithm, error), pol scheduler.Policy, workers int) {
	benchSpaceWith(b, build, func(alg protocol.Algorithm) (*statespace.Space, error) {
		return statespace.Build(alg, pol, statespace.Options{Workers: workers})
	})
}

func benchSpaceReference(b *testing.B, build func() (protocol.Algorithm, error), pol scheduler.Policy) {
	benchSpaceWith(b, build, func(alg protocol.Algorithm) (*statespace.Space, error) {
		return statespace.BuildReference(alg, pol, 0)
	})
}

func leadertreeFigure2() (protocol.Algorithm, error) {
	return leadertree.New(graph.Figure2Tree())
}

func centersElectorChain5() (protocol.Algorithm, error) {
	g, err := graph.Chain(5)
	if err != nil {
		return nil, err
	}
	return centers.NewElector(g)
}

func tokenring6() (protocol.Algorithm, error) { return tokenring.New(6) }

func BenchmarkExploreLeadertreeReference(b *testing.B) {
	benchSpaceReference(b, leadertreeFigure2, scheduler.DistributedPolicy)
}

func BenchmarkExploreLeadertree1Worker(b *testing.B) {
	benchSpace(b, leadertreeFigure2, scheduler.DistributedPolicy, 1)
}

func BenchmarkExploreLeadertreeAllWorkers(b *testing.B) {
	benchSpace(b, leadertreeFigure2, scheduler.DistributedPolicy, 0)
}

func BenchmarkExploreCentersReference(b *testing.B) {
	benchSpaceReference(b, centersElectorChain5, scheduler.CentralPolicy)
}

func BenchmarkExploreCenters1Worker(b *testing.B) {
	benchSpace(b, centersElectorChain5, scheduler.CentralPolicy, 1)
}

func BenchmarkExploreCentersAllWorkers(b *testing.B) {
	benchSpace(b, centersElectorChain5, scheduler.CentralPolicy, 0)
}

func BenchmarkExploreTokenringReference(b *testing.B) {
	benchSpaceReference(b, tokenring6, scheduler.DistributedPolicy)
}

func BenchmarkExploreTokenring1Worker(b *testing.B) {
	benchSpace(b, tokenring6, scheduler.DistributedPolicy, 1)
}

func BenchmarkExploreTokenringAllWorkers(b *testing.B) {
	benchSpace(b, tokenring6, scheduler.DistributedPolicy, 0)
}

// --- Frontier-exploration throughput ---------------------------------------
//
// The BenchmarkExploreFrontier* family demonstrates the asymptotic win of
// reachable-only exploration: on the 14-process token ring (3^14 ≈ 4.8×10^6
// configurations, central policy) the distance-≤k fault ball's forward
// closure is a vanishing fraction of the space (k=1: 0.08%, k=2: 1.6%), so
// frontier exploration scales with the ball while the full build pays for
// every configuration. Each ball benchmark includes the O(total) legitimacy
// scan that seeds the ball — the honest end-to-end cost of
// `stabcheck -reachable -kfaults k`. The explored state count is reported
// as a metric.

// benchFrontierBall enumerates the distance-≤k ball of a and explores its
// closure.
func benchFrontierBall(b *testing.B, build func() (protocol.Algorithm, error), pol scheduler.Policy, k int) {
	b.Helper()
	alg, err := build()
	if err != nil {
		b.Fatal(err)
	}
	states := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		globals, _, err := checker.FaultBallContext(b.Context(), alg, k, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := statespace.BuildFromContext(b.Context(), alg, pol, globals, statespace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states = ss.NumStates()
	}
	b.StopTimer()
	b.ReportMetric(float64(states), "states-explored")
}

func tokenring14() (protocol.Algorithm, error) { return tokenring.New(14) }

func BenchmarkExploreFrontierBallK0(b *testing.B) {
	benchFrontierBall(b, tokenring14, scheduler.CentralPolicy, 0)
}

func BenchmarkExploreFrontierBallK1(b *testing.B) {
	benchFrontierBall(b, tokenring14, scheduler.CentralPolicy, 1)
}

func BenchmarkExploreFrontierBallK2(b *testing.B) {
	benchFrontierBall(b, tokenring14, scheduler.CentralPolicy, 2)
}

// BenchmarkExploreFrontierFullSpace is the comparison point: the classic
// full-range build of the same 4.8M-state instance.
func BenchmarkExploreFrontierFullSpace(b *testing.B) {
	alg, err := tokenring14()
	if err != nil {
		b.Fatal(err)
	}
	states := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := statespace.Build(alg, scheduler.CentralPolicy, statespace.Options{MaxStates: statespace.IndexLimit})
		if err != nil {
			b.Fatal(err)
		}
		states = sp.States
	}
	b.StopTimer()
	b.ReportMetric(float64(states), "states-explored")
}

// BenchmarkAnalyzeSharedSpace measures the full core pipeline over the
// shared engine (one exploration for both checker and Markov views).
func BenchmarkAnalyzeSharedSpace(b *testing.B) {
	alg, err := weakstab.NewTokenRing(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := statespace.BuildContext(b.Context(), alg, scheduler.CentralPolicy, statespace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.AnalyzeSpaceContext(b.Context(), sp)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.WeakStabilizing() {
			b.Fatal("classification changed")
		}
	}
}

// BenchmarkAnalyzeSpace measures core.AnalyzeSpaceContext alone — every
// checker pass, the probability-1 test and the condensed hitting-time
// solve — on two of the report-full benchmark's instances. Each iteration
// analyzes a space built outside the timer, so the passes memoized on a
// space are paid in every iteration, never served from an earlier one.
func BenchmarkAnalyzeSpace(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		pol  scheduler.Policy
	}{
		{"tokenring11/central", 11, scheduler.CentralPolicy},
		{"tokenring9/distributed", 9, scheduler.DistributedPolicy},
	} {
		b.Run(c.name, func(b *testing.B) {
			alg, err := tokenring.NewWithModulus(c.n, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sp, err := statespace.BuildContext(b.Context(), alg, c.pol, statespace.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := core.AnalyzeSpaceContext(b.Context(), sp)
				if err != nil {
					b.Fatal(err)
				}
				if err := rep.CheckHierarchy(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
