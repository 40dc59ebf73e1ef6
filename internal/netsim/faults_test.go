package netsim

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/graph"
)

// Statistical unit tests for the fault injectors: drive Transform /
// BeginRound directly over many independent coordinates and check the
// empirical event rates against the configured probabilities within
// normal-approximation confidence bounds (~4σ on fixed seeds — the
// streams are deterministic, so these never flake; a failure means the
// injector's distribution is actually wrong).

func testTopology(t *testing.T, n int) *Topology {
	t.Helper()
	g, err := graph.Ring(n)
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
	return top
}

// transformOne runs f on a batch of one publication (e, seq) whose
// surviving copies are dels, and returns the copies f leaves.
func transformOne(f LinkFault, e int32, seq uint32, dels []Delivery) []Delivery {
	b := &Batch{Pubs: []Delivery{{Edge: e, Seq: seq, Delay: 1}}}
	for _, d := range dels {
		d.Edge, d.Seq = e, seq
		b.Msgs = append(b.Msgs, d)
	}
	f.Transform(b)
	return b.Msgs
}

// binomialBound returns the 4σ tolerance of an empirical rate estimated
// from trials draws of probability p.
func binomialBound(p float64, trials int) float64 {
	return 4 * math.Sqrt(p*(1-p)/float64(trials))
}

func TestLossRate(t *testing.T) {
	top := testTopology(t, 16)
	const p, pubs = 0.3, 40_000
	l := &Loss{P: p}
	l.Reset(top, NewStream(1, "loss-test"))
	kept := 0
	var dels []Delivery
	for seq := uint32(0); seq < pubs; seq++ {
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		kept += len(transformOne(l, 3, seq, dels))
	}
	rate := 1 - float64(kept)/pubs
	if math.Abs(rate-p) > binomialBound(p, pubs) {
		t.Fatalf("empirical loss rate %.4f, configured %.2f", rate, p)
	}
	if got := l.Counts()[0]; got.Name != "lost" || got.N != int64(pubs-kept) {
		t.Fatalf("counter %+v, want lost=%d", got, pubs-kept)
	}
}

func TestDuplicateRate(t *testing.T) {
	top := testTopology(t, 16)
	const p, pubs = 0.25, 40_000
	d := &Duplicate{P: p}
	d.Reset(top, NewStream(2, "dup-test"))
	extra := 0
	var dels []Delivery
	for seq := uint32(0); seq < pubs; seq++ {
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		out := transformOne(d, 5, seq, dels)
		extra += len(out) - 1
		for i, c := range out {
			if int(c.Copy) != i {
				t.Fatalf("seq %d: copy indexes %v not dense", seq, out)
			}
		}
	}
	rate := float64(extra) / pubs
	if math.Abs(rate-p) > binomialBound(p, pubs) {
		t.Fatalf("empirical duplication rate %.4f, configured %.2f", rate, p)
	}
}

func TestReorderRateAndBound(t *testing.T) {
	top := testTopology(t, 16)
	const p, pubs = 0.2, 40_000
	const bound = 5
	r := &Reorder{P: p, Bound: bound}
	r.Reset(top, NewStream(3, "reorder-test"))
	moved := 0
	var dels []Delivery
	for seq := uint32(0); seq < pubs; seq++ {
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		out := transformOne(r, 7, seq, dels)
		switch d := out[0].Delay; {
		case d == 1:
		case d >= 2 && d <= 1+bound:
			moved++
		default:
			t.Fatalf("seq %d: delay %d outside [1, %d]", seq, d, 1+bound)
		}
	}
	rate := float64(moved) / pubs
	if math.Abs(rate-p) > binomialBound(p, pubs) {
		t.Fatalf("empirical reorder rate %.4f, configured %.2f", rate, p)
	}
}

func TestCorruptRateAndDomain(t *testing.T) {
	top := testTopology(t, 16) // ring: every domain is deg+1 = 3
	const p, pubs = 0.15, 40_000
	c := &Corrupt{P: p}
	c.Reset(top, NewStream(4, "corrupt-test"))
	flipped := 0
	var dels []Delivery
	const sentinel = 2 // a valid color, so corruption to the same value is invisible but in-domain
	for seq := uint32(0); seq < pubs; seq++ {
		dels = append(dels[:0], Delivery{Delay: 1, Value: sentinel})
		out := transformOne(c, 9, seq, dels)
		if v := out[0].Value; v < 0 || v >= 3 {
			t.Fatalf("seq %d: corrupted value %d outside the sender domain [0,3)", seq, v)
		}
	}
	flipped = int(c.Counts()[0].N)
	rate := float64(flipped) / pubs
	if math.Abs(rate-p) > binomialBound(p, pubs) {
		t.Fatalf("empirical corruption rate %.4f, configured %.2f", rate, p)
	}
}

func TestGilbertElliottStationaryLossAndBursts(t *testing.T) {
	top := testTopology(t, 16)
	// LossGood=0, LossBad=1: every drop marks a Bad-state publication, so
	// the drop rate estimates the stationary Bad fraction and the runs of
	// consecutive drops estimate the Bad-burst length.
	const pgb, pbg, pubs = 0.02, 0.2, 200_000
	ge := &GilbertElliott{PGB: pgb, PBG: pbg, LossGood: 0, LossBad: 1}
	ge.Reset(top, NewStream(5, "ge-test"))
	drops := 0
	bursts, runLen := 0, 0
	totalRun := 0
	var dels []Delivery
	for seq := uint32(0); seq < pubs; seq++ {
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		if len(transformOne(ge, 11, seq, dels)) == 0 {
			drops++
			runLen++
		} else if runLen > 0 {
			bursts++
			totalRun += runLen
			runLen = 0
		}
	}
	statBad := pgb / (pgb + pbg)
	rate := float64(drops) / pubs
	// The chain mixes slowly (burst structure), so allow a generous but
	// still diagnostic tolerance around the stationary fraction.
	if math.Abs(rate-statBad) > 3*binomialBound(statBad, pubs/10) {
		t.Fatalf("empirical bad fraction %.4f, stationary %.4f", rate, statBad)
	}
	if bursts < 100 {
		t.Fatalf("only %d bursts observed", bursts)
	}
	meanBurst := float64(totalRun) / float64(bursts)
	// Mean burst length is geometric with mean 1/PBG = 5.
	want := 1 / pbg
	se := want / math.Sqrt(float64(bursts)) // geometric std ≈ mean for small pbg
	if math.Abs(meanBurst-want) > 4*se {
		t.Fatalf("mean burst length %.2f, want %.2f ± %.2f", meanBurst, want, 4*se)
	}
	// Per-edge chains are independent: a different edge sees different drops.
	ge2 := &GilbertElliott{PGB: pgb, PBG: pbg, LossGood: 0, LossBad: 1}
	ge2.Reset(top, NewStream(5, "ge-test"))
	same := 0
	for seq := uint32(0); seq < 1000; seq++ {
		a := append([]Delivery(nil), Delivery{Delay: 1, Value: 1})
		if len(transformOne(ge2, 12, seq, a)) == 0 {
			same++
		}
	}
	if same == drops {
		t.Fatal("edge 12 reproduced edge 11's drop pattern")
	}
}

func TestLatencyDistributions(t *testing.T) {
	top := testTopology(t, 16)
	const pubs = 40_000

	fix := &Latency{D: Fixed(3)}
	fix.Reset(top, NewStream(6, "lat-test"))
	uni := &Latency{D: Uniform{Lo: 2, Hi: 6}}
	uni.Reset(top, NewStream(7, "lat-test"))
	geo := &Latency{D: Geometric{Mean: 4}}
	geo.Reset(top, NewStream(8, "lat-test"))

	counts := map[int32]int{}
	geoSum := 0.0
	var dels []Delivery
	for seq := uint32(0); seq < pubs; seq++ {
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		if d := transformOne(fix, 1, seq, dels)[0].Delay; d != 3 {
			t.Fatalf("fixed latency gave delay %d", d)
		}
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		u := transformOne(uni, 1, seq, dels)[0].Delay
		if u < 2 || u > 6 {
			t.Fatalf("uniform latency gave delay %d outside [2,6]", u)
		}
		counts[u]++
		dels = append(dels[:0], Delivery{Delay: 1, Value: 1})
		gd := transformOne(geo, 1, seq, dels)[0].Delay
		if gd < 1 {
			t.Fatalf("geometric latency gave delay %d < 1", gd)
		}
		geoSum += float64(gd)
	}
	for v := int32(2); v <= 6; v++ {
		frac := float64(counts[v]) / pubs
		if math.Abs(frac-0.2) > binomialBound(0.2, pubs) {
			t.Fatalf("uniform delay %d has frequency %.4f, want 0.2", v, frac)
		}
	}
	geoMean := geoSum / pubs
	// std of 1+Geom(1/4) is sqrt(12) ≈ 3.46
	if se := 3.47 / math.Sqrt(pubs); math.Abs(geoMean-4) > 4*se+0.05 {
		t.Fatalf("geometric latency mean %.3f, want 4", geoMean)
	}
}

func TestCrashRecoverRates(t *testing.T) {
	top := testTopology(t, 64)
	const rate, meanDown = 0.01, 4.0
	const rounds = 20_000
	c := &CrashRecover{Rate: rate, MeanDown: meanDown}
	c.Reset(top, NewStream(9, "crash-test"))
	liveRounds, resets := 0, 0
	downSpans := []int{}
	cur := 0
	for r := int32(0); r < rounds; r++ {
		down, reset, nv := c.BeginRound(17, r, 1, 3)
		if reset {
			resets++
			if nv < 0 || nv >= 3 {
				t.Fatalf("round %d: reset state %d outside domain", r, nv)
			}
		}
		if down {
			cur++
			continue
		}
		if cur > 0 {
			downSpans = append(downSpans, cur)
			cur = 0
		}
		liveRounds++
	}
	crashes := int(c.Counts()[0].N)
	empRate := float64(crashes) / float64(liveRounds)
	// Crash attempts happen on live rounds (and recovery rounds).
	if math.Abs(empRate-rate) > 2*binomialBound(rate, liveRounds) {
		t.Fatalf("empirical crash rate %.5f, configured %.3f", empRate, rate)
	}
	if len(downSpans) < 30 {
		t.Fatalf("only %d completed down spans", len(downSpans))
	}
	sum := 0.0
	for _, s := range downSpans {
		sum += float64(s)
	}
	meanSpan := sum / float64(len(downSpans))
	se := meanDown / math.Sqrt(float64(len(downSpans)))
	if math.Abs(meanSpan-meanDown) > 4*se+0.5 {
		t.Fatalf("mean downtime %.2f rounds, configured %.1f", meanSpan, meanDown)
	}
	if resets == 0 {
		t.Fatal("no recovery ever reset state")
	}

	// Hold mode never resets.
	h := &CrashRecover{Rate: 0.05, MeanDown: 2, Hold: true}
	h.Reset(top, NewStream(10, "crash-test"))
	for r := int32(0); r < 2000; r++ {
		if _, reset, _ := h.BeginRound(0, r, 1, 3); reset {
			t.Fatal("hold-mode recovery reset state")
		}
	}
	if h.Counts()[1].N == 0 {
		t.Fatal("hold-mode process never recovered")
	}
}

// TestStreamDeterminismAndIndependence pins the counter-based RNG contract:
// same (seed, salt, coordinates) ⇒ same value; distinct salts or
// coordinates decorrelate; Float stays in [0,1).
func TestStreamDeterminismAndIndependence(t *testing.T) {
	s1 := NewStream(77, "a")
	s2 := NewStream(77, "a")
	s3 := NewStream(77, "b")
	if s1.At(1, 2, 3) != s2.At(1, 2, 3) {
		t.Fatal("identical streams disagree")
	}
	if s1.At(1, 2, 3) == s3.At(1, 2, 3) {
		t.Fatal("distinct salts collide")
	}
	if s1.At(1, 2, 3) == s1.At(1, 2, 4) {
		t.Fatal("adjacent coordinates collide")
	}
	sum := 0.0
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		f := s1.Float(i, 0, 0)
		if f < 0 || f >= 1 {
			t.Fatalf("Float out of range: %g", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float mean %.4f, want 0.5", mean)
	}
}

// TestGeometricMean pins the holding-time sampler the latency and crash
// models share.
func TestGeometricMean(t *testing.T) {
	s := NewStream(5, "geom")
	const n = 200_000
	for _, mean := range []float64{1, 2.5, 10} {
		sum := 0.0
		for i := uint64(0); i < n; i++ {
			g := geometric(s.At(i, uint64(mean*8), 0), mean)
			if g < 1 {
				t.Fatalf("geometric sample %d < 1", g)
			}
			sum += float64(g)
		}
		got := sum / n
		tol := 4 * mean / math.Sqrt(n) * 1.1
		if mean <= 1 {
			if got != 1 {
				t.Fatalf("mean %g: got %g, want exactly 1", mean, got)
			}
			continue
		}
		if math.Abs(got-mean) > tol+0.01 {
			t.Fatalf("mean %g: empirical %g beyond tolerance %g", mean, got, tol)
		}
	}
}
