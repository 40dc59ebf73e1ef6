package checker

// Acceptance pin: the ball-seeded frontier path (FaultBallContext +
// BallClosureContext + BallVerdictsOver) must reproduce the full-space k-fault classification
// bit-for-bit — same ball sizes, same possible/certain verdicts, same
// counterexample configuration — while exploring only the ball's forward
// closure, for every algorithm × policy in the matrix and every worker
// count.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func ballMatrix(t *testing.T) []struct {
	name string
	alg  protocol.Algorithm
	pol  scheduler.Policy
} {
	t.Helper()
	ring5 := mustTokenRing(t, 5)
	ring6 := mustTokenRing(t, 6)
	ring4, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	col, err := coloring.New(ring4)
	if err != nil {
		t.Fatal(err)
	}
	dijk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		alg  protocol.Algorithm
		pol  scheduler.Policy
	}{
		{"tokenring5/central", ring5, scheduler.CentralPolicy},
		{"tokenring5/distributed", ring5, scheduler.DistributedPolicy},
		{"tokenring6/central", ring6, scheduler.CentralPolicy},
		{"tokenring6/synchronous", ring6, scheduler.SynchronousPolicy},
		{"coloring-ring4/central", col, scheduler.CentralPolicy},
		{"coloring-ring4/distributed", col, scheduler.DistributedPolicy},
		{"dijkstra4/central", dijk, scheduler.CentralPolicy},
	}
}

// TestCertainConvergenceMatchesDivergingStates runs the ball matrix and
// three more rows through certain convergence and the k-fault divergence
// scan, which share their seeds: a ring that deadlocks outside L, the
// Figure 3 livelock, and Herman's ring under the central daemon, whose
// illegitimate self-loops are cycles of one state. Certain convergence must hold iff no state diverges, and a
// failure must name the lowest-indexed seed. The seeds are checked
// against a forward search of their own: an illegitimate state is a seed
// iff it is terminal or lies on a cycle of illegitimate states.
func TestCertainConvergenceMatchesDivergingStates(t *testing.T) {
	deadlocking, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	chain4, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	elect, err := leadertree.New(chain4)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := herman.New(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := append(ballMatrix(t), []struct {
		name string
		alg  protocol.Algorithm
		pol  scheduler.Policy
	}{
		{"tokenring6-mod3/central", deadlocking, scheduler.CentralPolicy},
		{"leadertree-chain4/synchronous", elect, scheduler.SynchronousPolicy},
		{"herman3/central", h3, scheduler.CentralPolicy},
	}...)
	var holds, terminal, cyclic, selfLoops int
	for _, tc := range cases {
		sp := explore(t, tc.alg, tc.pol)
		seeds := sp.divergenceSeeds()
		legit := sp.LegitSet()
		for s := range seeds {
			isTerminal := !legit[s] && sp.IsTerminal(s)
			onCycle := !legit[s] && !isTerminal && onIllegitimateCycle(sp, int32(s))
			if seeds[s] != (isTerminal || onCycle) {
				t.Fatalf("%s: state %d: seed %v, terminal %v, on a cycle %v", tc.name, s, seeds[s], isTerminal, onCycle)
			}
			if isTerminal {
				terminal++
			}
			if onCycle {
				cyclic++
				if slices.Contains(sp.Succ(s), int32(s)) {
					selfLoops++
				}
			}
		}
		res := sp.CheckCertainConvergence()
		if _, diverging := sp.verdictVectors(); res.Holds == slices.Contains(diverging, true) {
			t.Fatalf("%s: certain convergence %v, but some state diverges = %v", tc.name, res.Holds, res.Holds)
		}
		if res.Holds {
			holds++
			continue
		}
		if s, ok := sp.StateOf(res.Counterexample); !ok || int(s) != slices.Index(seeds, true) {
			t.Fatalf("%s: counterexample %v is not the lowest-indexed seed", tc.name, res.Counterexample)
		}
	}
	if holds == 0 || terminal == 0 || cyclic == 0 || selfLoops == 0 {
		t.Fatalf("the table has %d holding cases, %d terminal and %d cyclic seeds (%d with a self-loop); want each",
			holds, terminal, cyclic, selfLoops)
	}
}

// onIllegitimateCycle reports whether a forward search from s through
// illegitimate states returns to s.
func onIllegitimateCycle(sp *Space, s int32) bool {
	legit := sp.LegitSet()
	seen := make([]bool, sp.NumStates())
	stack := []int32{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range sp.Succ(int(u)) {
			if v == s {
				return true
			}
			if !legit[v] && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

func TestBallVerdictsMatchFullSpace(t *testing.T) {
	const maxK = 2
	for _, tc := range ballMatrix(t) {
		full := explore(t, tc.alg, tc.pol)
		want := BallVerdictsOver(full.Space, full.DistanceToLegitimate(), maxK)
		for _, workers := range []int{1, 4} {
			ss, globals, ballDist, err := BallClosureContext(t.Context(), nil, tc.alg, tc.pol, maxK, statespace.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if ss == nil {
				t.Fatalf("%s w=%d: no ball subspace returned", tc.name, workers)
			}
			if ss.NumStates() > full.NumStates() {
				t.Fatalf("%s w=%d: ball closure (%d) larger than the space (%d)",
					tc.name, workers, ss.NumStates(), full.NumStates())
			}
			got := BallVerdictsOver(ss, BallLocalDistances(ss, globals, ballDist), maxK)
			for k := 0; k <= maxK; k++ {
				g, w := got[k], want[k]
				if g.K != w.K || g.Configs != w.Configs || g.Possible != w.Possible || g.Certain != w.Certain {
					t.Fatalf("%s w=%d k=%d: ball verdict %+v, full-space verdict %+v",
						tc.name, workers, k, g, w)
				}
				switch {
				case (g.Counterexample == nil) != (w.Counterexample == nil):
					t.Fatalf("%s w=%d k=%d: counterexample presence differs", tc.name, workers, k)
				case g.Counterexample != nil && !g.Counterexample.Equal(w.Counterexample):
					t.Fatalf("%s w=%d k=%d: counterexample %v, want %v",
						tc.name, workers, k, g.Counterexample, w.Counterexample)
				}
			}
		}
	}
}

// TestFaultBallMatchesDistanceVector pins FaultBallContext's enumeration
// against the full-space distance vector: the ball is exactly the states
// with distance ≤ k, with matching distances.
func TestFaultBallMatchesDistanceVector(t *testing.T) {
	for _, tc := range ballMatrix(t) {
		full := explore(t, tc.alg, tc.pol)
		dist := full.DistanceToLegitimate()
		for k := 0; k <= 2; k++ {
			globals, ballDist, err := FaultBallContext(t.Context(), tc.alg, k, 0, 0)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			wantCount := 0
			for _, d := range dist {
				if d >= 0 && d <= k {
					wantCount++
				}
			}
			if len(globals) != wantCount {
				t.Fatalf("%s k=%d: ball has %d configs, want %d", tc.name, k, len(globals), wantCount)
			}
			prev := int64(-1)
			for i, g := range globals {
				if g <= prev {
					t.Fatalf("%s k=%d: ball not in ascending order", tc.name, k)
				}
				prev = g
				if ballDist[i] != dist[g] {
					t.Fatalf("%s k=%d: distance of global %d = %d, want %d",
						tc.name, k, g, ballDist[i], dist[g])
				}
			}
		}
	}
}

// TestFaultBallRespectsCap: the ball enumeration errors cleanly instead
// of growing past the state cap.
func TestFaultBallRespectsCap(t *testing.T) {
	a := mustTokenRing(t, 6)
	if _, _, err := FaultBallContext(t.Context(), a, 2, 0, 40); err == nil {
		t.Fatal("ball larger than the cap accepted")
	}
	// L itself has 24 configurations; a cap above the k=1 ball passes.
	globals, _, err := FaultBallContext(t.Context(), a, 1, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(globals) != 336 {
		t.Fatalf("k=1 ball has %d configs, want 336", len(globals))
	}

	// A hashed range (tokenring(16): 3^16 configurations), where the
	// sharded insert decides the cap inside the distance-1 shell, at one
	// worker and at four: exactly the ball size passes, one fewer fails.
	big := mustTokenRing(t, 16)
	for _, workers := range []int{1, 4} {
		ball, _, err := FaultBallContext(t.Context(), big, 1, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		B := int64(len(ball))
		if got, _, err := FaultBallContext(t.Context(), big, 1, workers, B); err != nil || int64(len(got)) != B {
			t.Fatalf("w=%d maxStates=%d on a %d-state ball: %d states, err=%v", workers, B, B, len(got), err)
		}
		want := fmt.Sprintf("checker: distance-1 fault ball exceeds the %d-state cap", B-1)
		if _, _, err := FaultBallContext(t.Context(), big, 1, workers, B-1); err == nil || err.Error() != want {
			t.Fatalf("w=%d maxStates=%d on a %d-state ball: err=%v, want %q", workers, B-1, B, err, want)
		}
	}
}

// TestFaultBallCapBoundsMemory: a ball that breaks the cap fails within
// one insert group of it instead of first holding its whole mutation
// shell. dijkstra(11,11)'s distance-2 shell spawns about 11.5M mutations
// (92 MB of globals alone, more for their table entries); with the cap at
// twice the distance-1 ball, the failing enumeration may allocate, beyond
// what the distance-1 ball costs, at most 128 bytes per state of the cap
// plus one group.
func TestFaultBallCapBoundsMemory(t *testing.T) {
	a, err := dijkstra.New(11, 11)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var ball1 []int64
	base := allocs(func() { ball1, _, err = FaultBallContext(t.Context(), a, 1, 2, 0) })
	if err != nil {
		t.Fatal(err)
	}
	capStates := 2 * int64(len(ball1))
	grown := allocs(func() { _, _, err = FaultBallContext(t.Context(), a, 2, 2, capStates) })
	want := fmt.Sprintf("checker: distance-2 fault ball exceeds the %d-state cap", capStates)
	if err == nil || err.Error() != want {
		t.Fatalf("err=%v, want %q", err, want)
	}
	if limit := 128 * uint64(capStates+ballBatch); grown > base+limit {
		t.Fatalf("cap-exceeding ball allocated %d bytes beyond the distance-1 ball's %d, want at most %d", grown-base, base, limit)
	}
}

// TestFaultBallDeterministicAcrossWorkers pins the ball enumeration to be
// independent of the pool size on a hashed range whose shells span many
// grow chunks: the dijkstra(8,8) ball (8^8 configurations) at every k <= 2,
// against the same ball at one worker.
func TestFaultBallDeterministicAcrossWorkers(t *testing.T) {
	a, err := dijkstra.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 2; k++ {
		base, baseDist, err := FaultBallContext(t.Context(), a, k, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if k == 2 && len(base) <= 4*ballGrain {
			t.Fatalf("distance-2 ball of %d configurations: its shells must span several chunks", len(base))
		}
		for _, workers := range []int{2, 5, 16} {
			got, dist, err := FaultBallContext(t.Context(), a, k, workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, base) || !slices.Equal(dist, baseDist) {
				t.Fatalf("k=%d w=%d: ball differs from 1 worker", k, workers)
			}
		}
	}
}

// TestBallLocalDistancesRejectsForeignGlobal pins the mapping's one
// failure: a ball configuration outside its closure panics with the
// "not a state of its closure" message, also when it lies above every
// closure global, where the merge walk runs off the end of the closure.
func TestBallLocalDistancesRejectsForeignGlobal(t *testing.T) {
	ring := mustTokenRing(t, 5)
	ss, globals, dist, err := BallClosureContext(t.Context(), nil, ring, scheduler.CentralPolicy, 0, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local := ss.Globals()
	g := local[len(local)-1] + 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "is not a state of its closure") {
			t.Errorf("global %d above the closure: panic %q, want the not-a-state message", g, msg)
		}
	}()
	BallLocalDistances(ss, append(slices.Clone(globals), g), append(slices.Clone(dist), 1))
}
