package mc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"weakstab/internal/sim"
	"weakstab/internal/stats"
)

// refWalker walks one trial at a time by the walk's rules in their plain
// form — a target has been hit, an absorbing state diverges, an
// exhausted budget censors, and otherwise the draw at the step count
// picks the successor — with every piece computed afresh: the stream
// hashes both halves of each draw, the start draw's coordinate is the
// all-ones one, the cumulative sums are summed here and refSample
// searches them. It shares no table with the Estimator, so it is the
// oracle the four-lane walk, the kind bytes and stepTerms answer to.
type refWalker struct {
	off       []int64
	succ      []int32
	cum       []float64
	target    []bool
	nonTarget []int
}

func newRefWalker(ts System, target []bool) *refWalker {
	off, succ, prob := ts.CSR()
	r := &refWalker{off: off, succ: succ, cum: make([]float64, len(succ)), target: target}
	for s := range target {
		sum := 0.0
		for i := off[s]; i < off[s+1]; i++ {
			sum += prob.At(i)
			r.cum[i] = sum
		}
		if !target[s] {
			r.nonTarget = append(r.nonTarget, s)
		}
	}
	return r
}

// walk returns trial's outcome as the walk's slot holds it (the hit
// time, slotDivergent or slotCensored) and the steps it took.
func (r *refWalker) walk(seed int64, trial, maxSteps, from int) (float64, int) {
	key := sim.Mix64(uint64(sim.TrialSeed(seed, trial)))
	bits := func(c uint64) uint64 { return sim.Mix64(key ^ sim.Mix64(c+0x9e3779b97f4a7c15)) }
	s := from
	if from < 0 {
		i := int(unit(bits(^uint64(0))) * float64(len(r.nonTarget)))
		s = r.nonTarget[min(i, len(r.nonTarget)-1)]
	}
	for steps := 0; ; steps++ {
		a, b := r.off[s], r.off[s+1]
		switch {
		case r.target[s]:
			return float64(steps), steps
		case a == b:
			return slotDivergent, steps
		case steps >= maxSteps:
			return slotCensored, steps
		}
		s = int(r.succ[refSample(r.cum, a, b, unit(bits(uint64(steps))))])
	}
}

// lanesCase is one estimator and the options its walks are checked at.
type lanesCase struct {
	name   string
	ts     System
	target []bool
	opt    Options
}

// lanesTally counts a case's reference outcomes.
type lanesTally struct {
	hits, divergent, censored int
	longest                   int // steps of the longest walk
}

// checkLanes walks every trial of c with the reference and checks, for
// each batch size, that walk gives every trial the reference's outcome
// and each batch the reference's step total, and that RunContext gives
// the Result those outcomes make.
func checkLanes(t *testing.T, c lanesCase) lanesTally {
	t.Helper()
	e, err := New(c.ts, c.target)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefWalker(c.ts, c.target)
	from := -1
	if c.opt.From != nil {
		from = *c.opt.From
	}
	want := make([]float64, c.opt.Trials)
	steps := make([]int, c.opt.Trials)
	var (
		tally    lanesTally
		hitTimes = stats.NewHist(c.opt.Trials)
		walked   int64
	)
	for trial := range want {
		want[trial], steps[trial] = ref.walk(c.opt.Seed, trial, c.opt.MaxSteps, from)
		walked += int64(steps[trial])
		tally.longest = max(tally.longest, steps[trial])
		switch want[trial] {
		case slotDivergent:
			tally.divergent++
		case slotCensored:
			tally.censored++
		default:
			hitTimes.Add(int(want[trial]))
		}
	}
	hitTimes.Seal()
	tally.hits = hitTimes.Len()
	for _, batch := range []int{1, 5, 17} {
		for lo := 0; lo < c.opt.Trials; lo += batch {
			hi := min(lo+batch, c.opt.Trials)
			slots := make([]float64, hi-lo)
			got := e.walk(slots, lo, c.opt.Seed, c.opt.MaxSteps, from)
			for i, v := range slots {
				if v != want[lo+i] {
					t.Fatalf("batch %d: trial %d has outcome %v, the reference %v (after %d steps)", batch, lo+i, v, want[lo+i], steps[lo+i])
				}
			}
			var sum int64
			for _, n := range steps[lo:hi] {
				sum += int64(n)
			}
			if got != sum {
				t.Fatalf("batch %d: trials [%d, %d) walked %d steps, the reference %d", batch, lo, hi, got, sum)
			}
		}
		opt := c.opt
		opt.Batch, opt.Workers = batch, 3
		res, err := e.RunContext(t.Context(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Steps, hitTimes) || res.Divergent != tally.divergent || res.Censored != tally.censored || res.WalkerSteps != walked {
			t.Fatalf("batch %d: RunContext gives %d hits, %d divergent, %d censored, %d steps; the reference %d, %d, %d, %d",
				batch, res.Steps.Len(), res.Divergent, res.Censored, res.WalkerSteps, tally.hits, tally.divergent, tally.censored, walked)
		}
	}
	return tally
}

// mixedChain is a random chain of n states whose rows are of every kind:
// targets with and without successors, absorbing non-targets, rows
// uniform over 1, 2, 4 or 8 successors and general rows (three equal
// successors, or four skewed ones). State 0 is a non-target uniform row.
func mixedChain(n int, rng *rand.Rand) (*chain, []bool) {
	rows := make([][]tr, n)
	target := make([]bool, n)
	to := func() int32 { return int32(rng.Intn(n)) }
	for s := range rows {
		r := rng.Intn(20)
		if s == 0 {
			r = 10
		}
		switch {
		case r == 0:
			target[s] = true
		case r == 1:
			target[s] = true
			rows[s] = []tr{{to(), 0.5}, {to(), 0.5}}
		case r == 2:
			// absorbing non-target: a nil row
		case r < 14:
			d := 1 << rng.Intn(4)
			for range d {
				rows[s] = append(rows[s], tr{to(), 1 / float64(d)})
			}
		case r < 17:
			rows[s] = []tr{{to(), 1.0 / 3}, {to(), 1.0 / 3}, {to(), 1.0 / 3}}
		default:
			rows[s] = []tr{{to(), 0.5}, {to(), 0.25}, {to(), 0.125}, {to(), 0.125}}
		}
	}
	return buildChain(rows), target
}

// pathChain is a reflecting random walk on states 0..n with target n,
// which from state 0 takes about n² steps, past the end of stepTerms.
// Every row is uniform over two successors, except that with lazy every
// seventh row also stays put and so is general.
func pathChain(n int, lazy bool) (*chain, []bool) {
	rows := make([][]tr, n+1)
	for s := range n {
		down := int32(max(s-1, 0))
		if lazy && s%7 == 3 {
			rows[s] = []tr{{down, 1.0 / 3}, {int32(s), 1.0 / 3}, {int32(s + 1), 1.0 / 3}}
		} else {
			rows[s] = []tr{{down, 0.5}, {int32(s + 1), 0.5}}
		}
	}
	target := make([]bool, n+1)
	target[n] = true
	return buildChain(rows), target
}

// TestLanesMatchReferenceWalker pins the four-lane walk to refWalker,
// trial by trial, on the cross-validation spaces and on hand-built
// chains: absorbing non-targets, budgets of 1 to 3 steps, walks past the
// end of stepTerms, rows that switch between uniform and general within a
// walk, fixed starts, and trial counts that are not a multiple of four at
// batch sizes 1, 5 and 17 (one lane, a full set plus a tail, and several
// refills). Each case must reach the outcomes it exists for.
func TestLanesMatchReferenceWalker(t *testing.T) {
	var cases []lanesCase
	for _, ins := range instances() {
		sp, _, target, h := buildInstance(t, ins)
		cases = append(cases, lanesCase{ins.name, sp, target, Options{Trials: 1001, Seed: 41, MaxSteps: stepBudget(h, target)}})
		if ins.name == "herman5/synchronous" {
			for budget := 1; budget <= 3; budget++ {
				cases = append(cases, lanesCase{fmt.Sprintf("%s/budget%d", ins.name, budget), sp, target, Options{Trials: 1001, Seed: 43, MaxSteps: budget}})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	mixed, mixedTarget := mixedChain(200, rng)
	cases = append(cases, lanesCase{"mixed", mixed, mixedTarget, Options{Trials: 2003, Seed: 3, MaxSteps: 400}})
	for budget := 1; budget <= 3; budget++ {
		cases = append(cases, lanesCase{fmt.Sprintf("mixed/budget%d", budget), mixed, mixedTarget, Options{Trials: 2003, Seed: 5, MaxSteps: budget}})
	}
	cases = append(cases, lanesCase{"mixed/from0", mixed, mixedTarget, Options{Trials: 1003, Seed: 7, MaxSteps: 400, From: intp(0)}})
	path, pathTarget := pathChain(48, true)
	cases = append(cases, lanesCase{"path/lazy", path, pathTarget, Options{Trials: 203, Seed: 9, MaxSteps: 6000, From: intp(0)}})
	path, pathTarget = pathChain(48, false)
	cases = append(cases, lanesCase{"path/uniform", path, pathTarget, Options{Trials: 203, Seed: 11, MaxSteps: 6000}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tally := checkLanes(t, c)
			switch {
			case tally.hits == 0:
				t.Fatal("no trial hit the target")
			case c.opt.MaxSteps <= 3 && tally.censored == 0:
				t.Fatal("a budget of at most 3 steps censored no trial")
			case c.name == "mixed" && tally.divergent == 0:
				t.Fatal("no trial reached an absorbing non-target state")
			case strings.HasPrefix(c.name, "path/") && tally.longest <= stepTermsLen:
				t.Fatalf("the longest walk took %d steps, not past the %d of stepTerms", tally.longest, stepTermsLen)
			}
		})
	}
}
