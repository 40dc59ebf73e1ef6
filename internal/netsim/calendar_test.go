package netsim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestEdgeDrawsMatchStream is the oracle for the link faults' draw helper:
// on random (edge, sequence, copy) coordinates — sequence numbers inside
// and past the engine's seqTerm table, the copy coordinates the faults use
// (copy, 1+copy for Gilbert–Elliott, 256+copy for Reorder and Corrupt)
// for every byte-sized copy index — it returns exactly Stream.At's bits,
// for several stream keys.
func TestEdgeDrawsMatchStream(t *testing.T) {
	top := testTopology(t, 64)
	rng := rand.New(rand.NewSource(3))
	b := &Batch{seqTerms: make([]uint64, 8)}
	for q := range b.seqTerms {
		b.seqTerms[q] = seqTerm(uint32(q))
	}
	for _, salt := range []string{"fault:0:loss(0.05)", "fault:1:ge", "fault:2:reorder"} {
		s := NewStream(int64(rng.Uint64()), salt)
		keys := s.edgeKeys(nil, top)
		for i := 0; i < 2000; i++ {
			m := Delivery{Edge: int32(rng.Intn(top.NumEdges())), Seq: rng.Uint32()}
			if i%4 == 0 {
				m.Seq = uint32(rng.Intn(16))
			}
			draws := b.draws(keys, &m)
			cp := uint64(rng.Intn(256))
			for _, c := range []uint64{0, cp, 1 + cp, 256 + cp, 511} {
				want := s.At(uint64(uint32(m.Edge)), uint64(m.Seq), c)
				if got := draws.at(c); got != want {
					t.Fatalf("%s: at(e=%d seq=%d c=%d) = %#x, Stream.At %#x", salt, m.Edge, m.Seq, c, got, want)
				}
			}
		}
	}
}

// TestCalendarMatchesMapReference drives the ring calendar and a map
// calendar (the engine's layout before the ring) through the same pushes
// and drains: a push at the last slot of the window, a push that doubles
// the ring while buckets are pending, then random delays — mostly short,
// some far past the window. Every round's arrivals must equal the
// reference's, in order.
func TestCalendarMatchesMapReference(t *testing.T) {
	var c calendar
	ref := map[int32][]delivery{}
	next := uint32(0)
	push := func(r int32) {
		d := delivery{edge: int32(next % 97), val: int32(next), seq: next}
		next++
		c.push(r, d)
		ref[r] = append(ref[r], d)
	}
	drain := func(r int32) {
		t.Helper()
		got := c.take(r)
		if want := ref[r]; !slices.Equal(got, want) {
			t.Fatalf("round %d: arrivals %v, reference %v", r, got, want)
		}
		delete(ref, r)
		c.recycle(got)
	}

	drain(0)
	push(calInitLen - 1) // base+len-1: the last slot of the window
	push(1)
	if len(c.ring) != calInitLen {
		t.Fatalf("ring grew to %d on an in-window push", len(c.ring))
	}
	push(3*calInitLen + 1) // doubles twice with rounds 1 and len-1 pending
	if len(c.ring) != 4*calInitLen {
		t.Fatalf("ring is %d after a push at %d, want %d", len(c.ring), 3*calInitLen+1, 4*calInitLen)
	}
	push(calInitLen - 1)

	rng := rand.New(rand.NewSource(11))
	const rounds = 400
	for r := int32(1); r < rounds; r++ {
		drain(r)
		for i := rng.Intn(6); i > 0; i-- {
			delay := int32(1)
			switch x := rng.Intn(20); {
			case x < 12:
			case x < 19:
				delay += int32(rng.Intn(2 * calInitLen))
			default:
				delay += int32(rng.Intn(64 * calInitLen))
			}
			push(r + delay)
		}
	}
	for r := int32(rounds); len(ref) > 0; r++ {
		drain(r)
	}
}

// TestCalendarRecyclesStorage pins the ring's retained capacity: with the
// one-round delays of a lossy network the buckets reuse one backing array
// (a drained bucket's storage goes to the next bucket that needs it), so
// steady-state rounds allocate nothing and the ring holds no more arrays
// than the map calendar's free list did.
func TestCalendarRecyclesStorage(t *testing.T) {
	var c calendar
	const perRound = 1000
	r := int32(0)
	round := func() {
		c.recycle(c.take(r))
		for i := 0; i < perRound; i++ {
			c.push(r+1, delivery{edge: int32(i)})
		}
		r++
	}
	for range 3 {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("steady-state round allocates %v times", allocs)
	}
	arrays := len(c.spare)
	for _, b := range c.ring {
		if cap(b) > 0 {
			arrays++
		}
	}
	if arrays != 1 {
		t.Fatalf("calendar retains %d backing arrays, want 1", arrays)
	}
}
