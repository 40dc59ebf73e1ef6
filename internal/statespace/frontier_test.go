package statespace

import (
	"reflect"
	"slices"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func frontierMatrix(t *testing.T) []struct {
	name string
	alg  protocol.Algorithm
	pol  scheduler.Policy
} {
	t.Helper()
	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ring6, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	chain4, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := leadertree.New(chain4)
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
		{"tokenring6/synchronous", ring6, scheduler.SynchronousPolicy},
		{"leadertree4/central", leader, scheduler.CentralPolicy},
		{"leadertree4/distributed", leader, scheduler.DistributedPolicy},
		{"dijkstra4/central", dijk, scheduler.CentralPolicy},
	}
}

func allSeeds(total int64) []int64 {
	out := make([]int64, total)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestBuildFromAllSeedsMatchesBuild: seeding the frontier with every
// configuration must reproduce the full space bit-for-bit — same CSR
// triple, same legitimacy, identity local↔global mapping — for every
// algorithm × policy × worker count.
func TestBuildFromAllSeedsMatchesBuild(t *testing.T) {
	for _, tc := range frontierMatrix(t) {
		full, err := Build(tc.alg, tc.pol, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, workers := range []int{1, 3, 8} {
			ss, err := BuildFromContext(t.Context(), tc.alg, tc.pol, allSeeds(full.Enc.Total()), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if ss.States != full.States {
				t.Fatalf("%s w=%d: %d states, want %d", tc.name, workers, ss.States, full.States)
			}
			fOff, fSucc, fProb := full.CSR()
			sOff, sSucc, sProb := ss.CSR()
			for s := 0; s < full.States; s++ {
				if ss.GlobalIndex(s) != int64(s) {
					t.Fatalf("%s w=%d: local %d maps to global %d", tc.name, workers, s, ss.GlobalIndex(s))
				}
				if ss.Legit[s] != full.Legit[s] {
					t.Fatalf("%s w=%d: legitimacy mismatch at %d", tc.name, workers, s)
				}
				if sOff[s] != fOff[s] || sOff[s+1] != fOff[s+1] {
					t.Fatalf("%s w=%d: row offsets differ at %d", tc.name, workers, s)
				}
			}
			for i := range fSucc {
				if sSucc[i] != fSucc[i] {
					t.Fatalf("%s w=%d: successor %d differs: %d vs %d", tc.name, workers, i, sSucc[i], fSucc[i])
				}
				if sp, fp := sProb.At(int64(i)), fProb.At(int64(i)); sp != fp {
					t.Fatalf("%s w=%d: probability %d differs: %g vs %g", tc.name, workers, i, sp, fp)
				}
			}
		}
	}
}

// reachableFrom computes the expected reachable set by a reference BFS
// over the full space.
func reachableFrom(full *Space, seeds []int64) map[int64]bool {
	seen := map[int64]bool{}
	var queue []int64
	for _, g := range seeds {
		if !seen[g] {
			seen[g] = true
			queue = append(queue, g)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, t := range full.Succ(int(queue[head])) {
			if !seen[int64(t)] {
				seen[int64(t)] = true
				queue = append(queue, int64(t))
			}
		}
	}
	return seen
}

// TestBuildFromSubsetParity: frontier exploration from a proper seed set
// must discover exactly the forward closure of the seeds, with every row
// equal (under the local↔global mapping) to the full space's row — bit
// equal probabilities included — for every worker count. Seeds covered:
// a singleton legitimate configuration, a singleton illegitimate one, and
// a small mixed set.
func TestBuildFromSubsetParity(t *testing.T) {
	for _, tc := range frontierMatrix(t) {
		full, err := Build(tc.alg, tc.pol, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var firstLegit, firstIllegit int64 = -1, -1
		for s := 0; s < full.States; s++ {
			if full.Legit[s] && firstLegit < 0 {
				firstLegit = int64(s)
			}
			if !full.Legit[s] && firstIllegit < 0 {
				firstIllegit = int64(s)
			}
		}
		seedSets := [][]int64{
			{firstLegit},
			{firstIllegit},
			{firstLegit, firstIllegit, int64(full.States) - 1},
		}
		for si, seeds := range seedSets {
			want := reachableFrom(full, seeds)
			for _, workers := range []int{1, 4} {
				ss, err := BuildFromContext(t.Context(), tc.alg, tc.pol, seeds, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s seeds#%d w=%d: %v", tc.name, si, workers, err)
				}
				if ss.States != len(want) {
					t.Fatalf("%s seeds#%d w=%d: %d states, want %d", tc.name, si, workers, ss.States, len(want))
				}
				prevG := int64(-1)
				for l := 0; l < ss.States; l++ {
					g := ss.GlobalIndex(l)
					if !want[g] {
						t.Fatalf("%s seeds#%d: discovered unreachable global %d", tc.name, si, g)
					}
					if g <= prevG {
						t.Fatalf("%s seeds#%d: locals not in ascending global order", tc.name, si)
					}
					prevG = g
					if ss.LocalIndex(g) != int32(l) {
						t.Fatalf("%s seeds#%d: LocalIndex(%d) = %d, want %d", tc.name, si, g, ss.LocalIndex(g), l)
					}
					if ss.Legit[l] != full.Legit[g] {
						t.Fatalf("%s seeds#%d: legitimacy mismatch at global %d", tc.name, si, g)
					}
					subRow, subProb := ss.Succ(l), probRow(ss, l)
					fullRow, fullProb := full.Succ(int(g)), probRow(full, int(g))
					if len(subRow) != len(fullRow) {
						t.Fatalf("%s seeds#%d: row length mismatch at global %d", tc.name, si, g)
					}
					for j := range subRow {
						if ss.GlobalIndex(int(subRow[j])) != int64(fullRow[j]) {
							t.Fatalf("%s seeds#%d: target mismatch at global %d", tc.name, si, g)
						}
						if subProb[j] != fullProb[j] {
							t.Fatalf("%s seeds#%d: probability mismatch at global %d: %g vs %g",
								tc.name, si, g, subProb[j], fullProb[j])
						}
					}
				}
			}
		}
	}
}

// faultBall returns the configurations of a within k single-process
// mutations of its closed-form legitimate set: the seed set of the
// k-fault closure, built here without the checker.
func faultBall(t *testing.T, a protocol.LegitEnumerator, k int) []int64 {
	t.Helper()
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	var ball []int64
	a.EnumerateLegitimate(func(cfg protocol.Configuration) bool {
		if g := enc.Encode(cfg); !seen[g] {
			seen[g] = true
			ball = append(ball, g)
		}
		return true
	})
	cfg := make(protocol.Configuration, a.Graph().N())
	for lo, d := 0, 0; d < k; d++ {
		hi := len(ball)
		for _, g := range ball[lo:hi] {
			cfg = enc.Decode(g, cfg)
			for p := range cfg {
				for v := 0; v < a.StateCount(p); v++ {
					if ng := g + int64(v-cfg[p])*enc.Weight(p); !seen[ng] {
						seen[ng] = true
						ball = append(ball, ng)
					}
				}
			}
		}
		lo = hi
	}
	return ball
}

// TestBuildFromDeterministicAcrossWorkers pins the exact equality of
// frontier explorations at different pool sizes on a hashed index range
// (tokenring(16): 3^16 configurations, above DenseDedupLimit) whose BFS
// levels span many frontierGrain chunks — the 2-fault closure, 163,788
// states (the 1-fault closure in short mode). The sealed CSR, globals and
// Legit and the frontier.shell stream must not depend on the worker count.
func TestBuildFromDeterministicAcrossWorkers(t *testing.T) {
	ring, err := tokenring.New(16)
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	if testing.Short() {
		k = 1
	}
	seeds := faultBall(t, ring, k)
	var (
		base       *Space
		baseShells []obs.FrontierShell
	)
	for _, workers := range []int{1, 2, 5, 16} {
		o := obs.New()
		var shells []obs.FrontierShell
		o.AddHook(func(name string, payload any) {
			if name == "frontier.shell" {
				shells = append(shells, payload.(obs.FrontierShell))
			}
		})
		got, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, seeds, Options{Workers: workers, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			if got.Enc.Total() <= DenseDedupLimit {
				t.Fatalf("%d configurations: the range must be hashed", got.Enc.Total())
			}
			if widest := slices.MaxFunc(shells, func(a, b obs.FrontierShell) int { return a.Expanded - b.Expanded }); widest.Expanded <= frontierGrain {
				t.Fatalf("widest level expands %d states: it must span several chunks", widest.Expanded)
			}
			base, baseShells = got, shells
			continue
		}
		bOff, bSucc, bProb := base.CSR()
		gOff, gSucc, gProb := got.CSR()
		switch {
		case got.States != base.States || !slices.Equal(bOff, gOff) || !slices.Equal(bSucc, gSucc) || !reflect.DeepEqual(bProb, gProb):
			t.Fatalf("w=%d: sealed CSR differs from 1 worker", workers)
		case !slices.Equal(base.Globals(), got.Globals()):
			t.Fatalf("w=%d: globals differ from 1 worker", workers)
		case !slices.Equal(base.Legit, got.Legit):
			t.Fatalf("w=%d: Legit differs from 1 worker", workers)
		case !slices.Equal(baseShells, shells):
			t.Fatalf("w=%d: frontier.shell stream differs from 1 worker:\n%v\n%v", workers, shells, baseShells)
		}
	}
}

// TestBuildFromValidation exercises the error paths: empty and
// out-of-range seed sets, and the discovered-state cap.
func TestBuildFromValidation(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, nil, Options{}); err == nil {
		t.Fatal("empty seed set accepted")
	}
	if _, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, []int64{-1}, Options{}); err == nil {
		t.Fatal("negative seed accepted")
	}
	if _, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, []int64{1 << 40}, Options{}); err == nil {
		t.Fatal("out-of-range seed accepted")
	}
	if _, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, []int64{0}, Options{MaxStates: 4}); err == nil {
		t.Fatal("cap-exceeding exploration accepted")
	}
	if _, err := EncodeConfigs(ring, []protocol.Configuration{{0, 0}}); err == nil {
		t.Fatal("short seed configuration accepted")
	}
	if _, err := EncodeConfigs(ring, []protocol.Configuration{{0, 0, 0, 0, 9}}); err == nil {
		t.Fatal("out-of-domain seed configuration accepted")
	}
}

// TestBuildFromConfigsMatchesBuildFrom pins configuration seeds, encoded
// by EncodeConfigs, to the same exploration as hand-encoded index seeds.
func TestBuildFromConfigsMatchesBuildFrom(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := protocol.NewEncoder(ring, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []protocol.Configuration{{1, 0, 1, 1, 0}, {0, 0, 0, 0, 0}}
	seeds := []int64{enc.Encode(cfgs[0]), enc.Encode(cfgs[1])}
	encoded, err := EncodeConfigs(ring, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(encoded, seeds) {
		t.Fatalf("EncodeConfigs = %v, want %v", encoded, seeds)
	}
	a, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, encoded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, seeds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Edges() != b.Edges() {
		t.Fatalf("config-seeded subspace differs: %d/%d states, %d/%d edges",
			a.States, b.States, a.Edges(), b.Edges())
	}
}

// TestSubSpaceStateOf checks membership queries on a proper subspace.
func TestSubSpaceStateOf(t *testing.T) {
	ring, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(ring, scheduler.CentralPolicy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var legitSeed int64 = -1
	for s := 0; s < full.States; s++ {
		if full.Legit[s] {
			legitSeed = int64(s)
			break
		}
	}
	ss, err := BuildFromContext(t.Context(), ring, scheduler.CentralPolicy, []int64{legitSeed}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.States >= full.States {
		t.Fatalf("closure of a legitimate seed covers the whole space (%d states)", ss.States)
	}
	inSub := map[int64]bool{}
	for l := 0; l < ss.States; l++ {
		inSub[ss.GlobalIndex(l)] = true
	}
	cfg := make(protocol.Configuration, 5)
	for s := 0; s < full.States; s++ {
		cfg = full.Enc.Decode(int64(s), cfg)
		l, ok := ss.StateOf(cfg)
		if ok != inSub[int64(s)] {
			t.Fatalf("StateOf(%v) membership = %v, want %v", cfg, ok, inSub[int64(s)])
		}
		if ok && ss.GlobalIndex(int(l)) != int64(s) {
			t.Fatalf("StateOf(%v) local %d maps back to %d", cfg, l, ss.GlobalIndex(int(l)))
		}
	}
}
