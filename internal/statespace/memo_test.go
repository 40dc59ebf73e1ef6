package statespace

// Tests of the passes memoized on a Space (LegitDistances, IllegitSCC) and
// of the explorer's row merge.

import (
	"slices"
	"sync"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
)

// memoSpaces returns the three kinds of space the memos serve: full-range
// builds (one where some states cannot reach L), a frontier-explored
// closure, and Map-loaded full and closure spaces.
func memoSpaces(t *testing.T) map[string]*Space {
	t.Helper()
	tr, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := dijkstra.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	spaces := map[string]*Space{}
	for name, pol := range map[string]scheduler.Policy{
		"central":     scheduler.CentralPolicy,
		"synchronous": scheduler.SynchronousPolicy,
	} {
		sp, err := Build(tr, pol, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		spaces["full/tokenring5/"+name] = sp
	}
	full, err := Build(dk, scheduler.DistributedPolicy, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spaces["full/dijkstra4/distributed"] = full
	closure, err := BuildFromContext(t.Context(), tr, scheduler.CentralPolicy, []int64{0, 1, 7, 13, 20}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spaces["closure/tokenring5/central"] = closure
	for name, bytesOf := range map[string]func(*testing.T) (*Space, *tokenring.Algorithm, []byte){
		"mapped/full":    testSpaceBytes,
		"mapped/closure": testSubSpaceBytes,
	} {
		_, a, data := bytesOf(t)
		sp, err := Map(copyAt(data, 0), a, scheduler.CentralPolicy, 2, 0, false, func() error { return nil })
		if err != nil {
			t.Fatalf("%s: Map: %v", name, err)
		}
		if !sp.Mapped() {
			t.Fatalf("%s: not mapped", name)
		}
		spaces[name] = sp
	}
	return spaces
}

func TestMemoParity(t *testing.T) {
	for name, sp := range memoSpaces(t) {
		dist := sp.LegitDistances()
		unreachable := 0
		for _, workers := range []int{1, 4} {
			want := sp.Reverse().BackwardBFS(sp.Legit, nil, workers)
			if !slices.Equal(dist, want) {
				t.Fatalf("%s: LegitDistances differs from a fresh BackwardBFS at %d workers", name, workers)
			}
		}
		for _, d := range dist {
			if d < 0 {
				unreachable++
			}
		}

		include := make([]bool, sp.States)
		for s, l := range sp.Legit {
			include[s] = !l
		}
		off, succ, _ := sp.CSR()
		want := SCC(sp.States, off, succ, include)
		cond := sp.IllegitSCC()
		comp, count := cond.Comp, cond.Count()
		if count != want.Count() || !slices.Equal(comp, want.Comp) ||
			!slices.Equal(cond.Start, want.Start) || !slices.Equal(cond.Members, want.Members) {
			t.Fatalf("%s: IllegitSCC (%d components) differs from a fresh SCC (%d)", name, count, want.Count())
		}

		// Repeat calls return the memo itself, not a recomputation.
		if again := sp.LegitDistances(); &again[0] != &dist[0] {
			t.Fatalf("%s: LegitDistances recomputed", name)
		}
		if again := sp.IllegitSCC(); &again.Comp[0] != &comp[0] || &again.Members[0] != &cond.Members[0] {
			t.Fatalf("%s: IllegitSCC recomputed", name)
		}
		t.Logf("%s: %d states, %d cannot reach L, %d illegitimate components", name, sp.States, unreachable, count)
	}
}

// TestMemoConcurrentFirstUse calls both memos from several goroutines on
// a fresh space: every caller must get the one shared slice (and, under
// -race, no data race).
func TestMemoConcurrentFirstUse(t *testing.T) {
	for name, sp := range memoSpaces(t) {
		const callers = 4
		dists := make([][]int32, callers)
		comps := make([][]int32, callers)
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dists[i] = sp.LegitDistances()
				comps[i] = sp.IllegitSCC().Comp
			}()
		}
		wg.Wait()
		for i := 1; i < callers; i++ {
			if &dists[i][0] != &dists[0][0] || &comps[i][0] != &comps[0][0] {
				t.Fatalf("%s: caller %d got a different slice", name, i)
			}
		}
	}
}
