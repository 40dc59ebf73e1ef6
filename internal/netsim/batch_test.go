package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/sim"
)

// refLink is the per-publication link-fault stack that the batch path
// replaced: each fault's transform of one publication's copies, drawing
// from Stream.At and Stream.Float at (edge, seq, copy). It is the oracle
// of TestBatchMatchesReference. A duplicate takes copy index 1 + the
// highest index its publication holds, at most 249.
type refLink struct {
	f   LinkFault
	s   Stream
	top *Topology
	bad []bool // Gilbert–Elliott chain state per edge
	n   int64  // events counted
}

func (r *refLink) transform(e int32, seq uint32, dels []Delivery) []Delivery {
	at := func(c uint64) uint64 { return r.s.At(uint64(uint32(e)), uint64(seq), c) }
	float := func(c uint64) float64 { return r.s.Float(uint64(uint32(e)), uint64(seq), c) }
	switch f := r.f.(type) {
	case *Latency:
		for i := range dels {
			dels[i].Delay = f.D.Sample(at(uint64(dels[i].Copy)))
		}
	case *Loss:
		kept := dels[:0]
		for _, d := range dels {
			if float(uint64(d.Copy)) < f.P {
				r.n++
				continue
			}
			kept = append(kept, d)
		}
		dels = kept
	case *GilbertElliott:
		u := float(0)
		if r.bad[e] {
			if u < f.PBG {
				r.bad[e] = false
			}
		} else if u < f.PGB {
			r.bad[e] = true
		}
		p := f.LossGood
		if r.bad[e] {
			p = f.LossBad
		}
		if p <= 0 {
			return dels
		}
		kept := dels[:0]
		for _, d := range dels {
			if float(1+uint64(d.Copy)) < p {
				r.n++
				continue
			}
			kept = append(kept, d)
		}
		dels = kept
	case *Duplicate:
		top := uint8(0)
		for _, d := range dels {
			top = max(top, d.Copy)
		}
		orig := len(dels)
		for i := 0; i < orig; i++ {
			if top >= maxCopy {
				break
			}
			if float(uint64(dels[i].Copy)) < f.P {
				top++
				dup := dels[i]
				dup.Copy = top
				dels = append(dels, dup)
				r.n++
			}
		}
	case *Reorder:
		bound := max(f.Bound, 1)
		for i := range dels {
			if float(uint64(dels[i].Copy)) < f.P {
				dels[i].Delay += 1 + int32(at(256+uint64(dels[i].Copy))%uint64(bound))
				r.n++
			}
		}
	case *Corrupt:
		for i := range dels {
			if float(uint64(dels[i].Copy)) < f.P {
				dom := uint64(r.top.domain[r.top.sender[e]])
				dels[i].Value = int32(at(256+uint64(dels[i].Copy)) % dom)
				r.n++
			}
		}
	default:
		panic(fmt.Sprintf("no reference for %T", f))
	}
	return dels
}

// TestBatchMatchesReference drives every link fault, alone and in mixed
// stacks, through random batches and through the per-publication
// reference, and requires the same messages in the same order, the same
// event counters and the same Gilbert–Elliott chain states after every
// batch. The stacks put several copies on one publication (earlier dup
// layers, up to the 249 cap), empty publications before a Gilbert–Elliott
// layer (whose chain must still advance once per publication) and draw at
// 256+copy; the sequence numbers run inside and far past the batch's
// seqTerm table.
func TestBatchMatchesReference(t *testing.T) {
	top := testTopology(t, 48)
	stacks := map[string]func() []LinkFault{
		"latency": func() []LinkFault { return []LinkFault{&Latency{D: Geometric{Mean: 3}}} },
		"loss":    func() []LinkFault { return []LinkFault{&Loss{P: 0.3}} },
		"ge": func() []LinkFault {
			return []LinkFault{&GilbertElliott{PGB: 0.2, PBG: 0.3, LossGood: 0.05, LossBad: 0.7}}
		},
		"dup":     func() []LinkFault { return []LinkFault{&Duplicate{P: 0.4}} },
		"reorder": func() []LinkFault { return []LinkFault{&Reorder{P: 0.4, Bound: 5}} },
		"corrupt": func() []LinkFault { return []LinkFault{&Corrupt{P: 0.4}} },
		"dup,loss,dup": func() []LinkFault {
			return []LinkFault{&Duplicate{P: 0.6}, &Loss{P: 0.5}, &Duplicate{P: 0.6}}
		},
		"loss,ge": func() []LinkFault {
			return []LinkFault{&Loss{P: 0.6}, &GilbertElliott{PGB: 0.3, PBG: 0.2, LossGood: 0.1, LossBad: 0.9}}
		},
		"dup,loss,ge,reorder,corrupt": func() []LinkFault {
			return []LinkFault{&Duplicate{P: 0.7}, &Loss{P: 0.6},
				&GilbertElliott{PGB: 0.25, PBG: 0.25, LossGood: 0.2, LossBad: 0.8},
				&Reorder{P: 0.5, Bound: 3}, &Corrupt{P: 0.5}}
		},
		"9×dup,reorder,corrupt,ge": func() []LinkFault {
			s := []LinkFault{}
			for range 9 {
				s = append(s, &Duplicate{P: 0.9})
			}
			return append(s, &Reorder{P: 0.3, Bound: 7}, &Corrupt{P: 0.3},
				&GilbertElliott{PGB: 0.1, PBG: 0.1, LossGood: 0, LossBad: 0.5})
		},
		"full": func() []LinkFault {
			var s []LinkFault
			for _, f := range faultStack() {
				if lf, ok := f.(LinkFault); ok {
					s = append(s, lf)
				}
			}
			return s
		},
	}
	for name, mk := range stacks {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			batch, refs := mk(), mk()
			ref := make([]*refLink, len(refs))
			for i, f := range batch {
				s := NewStream(rng.Int63(), fmt.Sprintf("fault:%d:%s", i, f.Name()))
				f.Reset(top, s)
				refs[i].Reset(top, s)
				ref[i] = &refLink{f: refs[i], s: s, top: top, bad: make([]bool, top.NumEdges())}
			}
			seq := make([]uint32, top.NumEdges())
			for e := range seq {
				if e%3 == 0 {
					seq[e] = math.MaxUint32 - 40 - uint32(rng.Intn(1<<20))
				}
			}
			b := &Batch{seqTerms: make([]uint64, 12)}
			for q := range b.seqTerms {
				b.seqTerms[q] = seqTerm(uint32(q))
			}
			maxCopies := 0
			for round := 0; round < 60; round++ {
				// A batch: a random subset of the edges in random order, one
				// publication each, as a chunk of senders would publish.
				b.Pubs = b.Pubs[:0]
				for _, e := range rng.Perm(top.NumEdges())[:1+rng.Intn(top.NumEdges())] {
					b.Pubs = append(b.Pubs, Delivery{Edge: int32(e), Seq: seq[e], Delay: 1, Value: int32(rng.Intn(3))})
					seq[e]++
				}
				b.Msgs = append(b.Msgs[:0], b.Pubs...)
				for _, f := range batch {
					f.Transform(b)
				}
				var want []Delivery
				for _, p := range b.Pubs {
					dels := []Delivery{p}
					for _, r := range ref {
						dels = r.transform(p.Edge, p.Seq, dels)
					}
					maxCopies = max(maxCopies, len(dels))
					want = append(want, dels...)
				}
				if len(b.Msgs) != len(want) {
					t.Fatalf("round %d: %d messages, reference %d", round, len(b.Msgs), len(want))
				}
				for i := range want {
					if b.Msgs[i] != want[i] {
						t.Fatalf("round %d: message %d = %+v, reference %+v", round, i, b.Msgs[i], want[i])
					}
				}
				for i, f := range batch {
					if got := FaultCounts([]Fault{f}); len(got) > 0 && got[0].N != ref[i].n {
						t.Fatalf("round %d: %s counted %d, reference %d", round, f.Name(), got[0].N, ref[i].n)
					}
					if ge, ok := f.(*GilbertElliott); ok && !reflect.DeepEqual(ge.bad, ref[i].bad) {
						t.Fatalf("round %d: %s chain states differ from the reference", round, f.Name())
					}
				}
			}
			if strings.HasPrefix(name, "9×dup") && maxCopies != maxCopy+1 {
				t.Fatalf("at most %d copies of one publication, want the cap of %d", maxCopies, maxCopy+1)
			}
		})
	}
}

// TestThresholdMatchesUnit pins the integer probability test:
// hit(u, threshold(p)) == (unit(u) < p) at the boundary of every
// threshold, at its neighbours and at the extremes of u.
func TestThresholdMatchesUnit(t *testing.T) {
	for _, p := range []float64{math.NaN(), -1, 0, 5e-324, 0.05, 0.3, math.Nextafter(1, 0), 1, 2, 1e300} {
		thr := threshold(p)
		us := []uint64{0, 1, 1<<11 - 1, 1 << 11, math.MaxUint64, math.MaxUint64 >> 1}
		for _, k := range []uint64{thr - 1, thr, thr + 1} {
			us = append(us, k<<11, k<<11|(1<<11-1))
		}
		for _, u := range us {
			if got, want := hit(u, thr), unit(u) < p; got != want {
				t.Errorf("p=%g u=%#x: hit=%v, unit(u)=%v < p is %v", p, u, got, unit(u), want)
			}
		}
	}
}

// TestPublishChunkInvariance runs TestDeterminismAcrossSharding's stack
// with one, three and the default number of senders per batch: the
// result, its trace and every fault counter must be bit-identical.
func TestPublishChunkInvariance(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	init := protocol.RandomConfiguration(a, sim.TrialRNG(7, 0))
	defer func(c int) { publishChunk = c }(publishChunk)
	var ref Result
	var refCounts []Count
	for i, chunk := range []int{publishChunk, 1, 3} {
		publishChunk = chunk
		faults := faultStack()
		res, err := RunOnContext(t.Context(), top, a, init, Options{
			MaxRounds: 60, Seed: 99, Faults: faults, Workers: 2, Shards: 3, Record: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref, refCounts = res, FaultCounts(faults)
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("chunk %d: result differs from the default chunk's", chunk)
		}
		if counts := FaultCounts(faults); !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("chunk %d: fault counters %v, default chunk %v", chunk, counts, refCounts)
		}
	}
}

// TestDuplicateFreshCopyIndex runs the stack dup,loss,dup: whenever the
// loss layer drops copy 0 but keeps copy 1, the second duplicate layer
// must not emit another copy 1. No two delivered copies of a publication
// may share a copy index.
func TestDuplicateFreshCopyIndex(t *testing.T) {
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	init := protocol.RandomConfiguration(a, sim.TrialRNG(3, 0))
	res, err := RunOnContext(t.Context(), top, a, init, Options{
		MaxRounds: 20, CheckEvery: 1 << 20, Seed: 5, Record: true,
		Faults: []Fault{&Duplicate{P: 1}, &Loss{P: 0.5}, &Duplicate{P: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	type copyKey struct {
		edge int32
		seq  uint32
		cp   uint8
	}
	seen := map[copyKey]bool{}
	for _, ev := range res.Trace {
		if ev.Kind != EvDeliver {
			continue
		}
		k := copyKey{ev.Edge, ev.Seq, ev.Copy}
		if seen[k] {
			t.Fatalf("edge %d seq %d: copy %d delivered twice", ev.Edge, ev.Seq, ev.Copy)
		}
		seen[k] = true
	}
	if len(seen) == 0 {
		t.Fatal("no deliveries recorded")
	}
}
