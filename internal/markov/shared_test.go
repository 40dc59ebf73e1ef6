package markov

import (
	"math"
	"slices"
	"testing"

	"weakstab/internal/statespace"
)

// sameBits reports whether two vectors are bit-identical.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSharedCondensationBitIdentical pins every analysis that reads the
// space's memoized passes (target aliasing LegitSet) to the unshared path,
// which a clone of the target forces: probability-1 reachability, the
// backward distances and the hitting times, bit for bit, at 1 and 4
// workers and with every block-solve path forced. The cases include
// instances where every state converges with probability 1 and instances
// where some do not, so the solve skips memo components outside the
// transient set.
func TestSharedCondensationBitIdentical(t *testing.T) {
	saveDense, savePar := denseBlockLimit, parallelBlockMin
	defer func() { denseBlockLimit, parallelBlockMin = saveDense, savePar }()
	var allOne, someNot int
	for _, mode := range []string{"default", "sequential-gs", "red-black-gs"} {
		denseBlockLimit, parallelBlockMin = saveDense, savePar
		switch mode {
		case "sequential-gs":
			denseBlockLimit = 1
		case "red-black-gs":
			denseBlockLimit, parallelBlockMin = 1, 2
		}
		for _, ts := range solverCases(t) {
			label := mode + "/" + ts.Alg.Name() + "/" + ts.Pol.Name()
			chain, err := FromSpace(ts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			shared := TargetFromSpace(ts)
			if !chain.legitTarget(shared) {
				t.Fatalf("%s: TargetFromSpace is not recognized as the space's L", label)
			}
			cloned := slices.Clone(shared)
			if chain.legitTarget(cloned) {
				t.Fatalf("%s: a cloned target takes the shared path", label)
			}
			if !slices.Equal(chain.ReachesWithProbOne(shared), chain.ReachesWithProbOne(cloned)) {
				t.Fatalf("%s: ReachesWithProbOne differs through the memo", label)
			}
			// A report and its hitting-time solve share one pass over L.
			if a, b := chain.ReachesWithProbOne(shared), chain.ReachesWithProbOne(shared); len(a) > 0 && &a[0] != &b[0] {
				t.Fatalf("%s: the probability-1 pass over L runs more than once per chain", label)
			}
			if !slices.Equal(chain.distances(shared), chain.distances(cloned)) {
				t.Fatalf("%s: distances to L differ through the memo", label)
			}
			if mode == "default" {
				if slices.Contains(chain.ReachesWithProbOne(shared), false) {
					someNot++
				} else {
					allOne++
				}
			}
			for _, workers := range []int{1, 4} {
				chain.workers = workers
				want, err := chain.HittingTimesContext(t.Context(), cloned)
				if err != nil {
					t.Fatalf("%s: unshared: %v", label, err)
				}
				got, err := chain.HittingTimesContext(t.Context(), shared)
				if err != nil {
					t.Fatalf("%s: shared: %v", label, err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%s: workers=%d: hitting times through the memo differ from the unshared solve", label, workers)
				}
			}
		}
	}
	if allOne == 0 || someNot == 0 {
		t.Fatalf("cases cover %d all-probability-1 and %d partial instances; want both", allOne, someNot)
	}
}

// TestCondenseMatchesTarjan checks the shared condensation against a fresh
// Tarjan over the transient subgraph: the same blocks with the same
// ascending members, numbered in a reverse-topological order (every cross
// edge between blocks points into a lower id).
func TestCondenseMatchesTarjan(t *testing.T) {
	skipped := 0
	for _, ts := range solverCases(t) {
		label := ts.Alg.Name() + "/" + ts.Pol.Name()
		chain, err := FromSpace(ts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		target := TargetFromSpace(ts)
		probOne := chain.ReachesWithProbOne(target)
		transient := make([]bool, ts.NumStates())
		for s := range transient {
			transient[s] = probOne[s] && !target[s]
		}
		cond := chain.condense(target, transient)
		fresh := statespace.SCC(chain.n, chain.off, chain.succ, transient)
		want, wantN := fresh.Comp, fresh.Count()
		// The blocks are the condensation's components inside transient.
		got := make([]int32, chain.n)
		n := 0
		for b := range cond.Count() {
			if transient[cond.Component(b)[0]] {
				n++
			}
		}
		for s, b := range cond.Comp {
			got[s] = -1
			if b >= 0 && transient[s] {
				got[s] = b
			}
		}
		if n != wantN {
			t.Fatalf("%s: %d blocks, want %d", label, n, wantN)
		}
		skipped += ts.IllegitSCC().Count() - n
		// Block ids may differ; the partition must not.
		toFresh := make([]int32, cond.Count())
		for i := range toFresh {
			toFresh[i] = -1
		}
		for s := range got {
			if (got[s] < 0) != (want[s] < 0) {
				t.Fatalf("%s: state %d in a block in one condensation only", label, s)
			}
			if got[s] < 0 {
				continue
			}
			if toFresh[got[s]] == -1 {
				toFresh[got[s]] = want[s]
			} else if toFresh[got[s]] != want[s] {
				t.Fatalf("%s: block %d splits across fresh blocks", label, got[s])
			}
		}
		for b, f := range toFresh {
			if f >= 0 && !slices.Equal(cond.Component(b), fresh.Component(int(f))) {
				t.Fatalf("%s: block %d's members differ from the fresh block's", label, b)
			}
		}
		for s := range got {
			if got[s] < 0 {
				continue
			}
			for _, u := range chain.rowSucc(s) {
				if got[u] >= 0 && got[u] != got[s] && got[u] > got[s] {
					t.Fatalf("%s: cross edge %d->%d points to a higher block id", label, s, u)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no case skips a memo component outside the transient set")
	}
}
