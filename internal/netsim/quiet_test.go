package netsim

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/sim"
)

// countingColoring is coloring with a counter of guard evaluations; the
// shards of a run call EnabledAction concurrently.
type countingColoring struct {
	*coloring.Algorithm
	calls atomic.Int64
}

func (c *countingColoring) EnabledAction(cfg protocol.Configuration, p int) int {
	c.calls.Add(1)
	return c.Algorithm.EnabledAction(cfg, p)
}

// TestQuietProcessesSkipGuards pins the execute loop's skip of quiet
// processes: after a transient burst on a lossy ring almost every process
// is disabled and its inputs never change, so over a fixed number of
// rounds (legitimacy checks off) the guards evaluated must be far fewer
// than one per process per round. The exact count is pinned and must not
// depend on workers or shards, and neither may the result.
func TestQuietProcessesSkipGuards(t *testing.T) {
	const n, k, rounds = 10_000, 100, 64
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	col, err := coloring.New(g)
	if err != nil {
		t.Fatal(err)
	}
	a := &countingColoring{Algorithm: col}
	top, err := NewTopology(a)
	if err != nil {
		t.Fatal(err)
	}
	var legit protocol.Configuration
	col.EnumerateLegitimate(func(cfg protocol.Configuration) bool {
		legit = cfg.Clone()
		return false
	})
	init := sim.InjectFaults(col, legit, k, rand.New(rand.NewSource(3)))
	// One evaluation per process in round 0, then only the neighborhoods
	// of the corrupted processes while they recolor.
	const wantCalls = 10186
	var ref Result
	for i, ws := range [][2]int{{1, 1}, {2, 3}} {
		a.calls.Store(0)
		res, err := RunOnContext(t.Context(), top, a, init, Options{
			MaxRounds: rounds, CheckEvery: 1 << 30, Seed: 11,
			Faults:  []Fault{&Loss{P: 0.05}},
			Workers: ws[0], Shards: ws[1],
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d shards=%d: not re-stabilized after %d rounds", ws[0], ws[1], rounds)
		}
		calls := a.calls.Load()
		if calls != wantCalls {
			t.Errorf("workers=%d shards=%d: %d guard evaluations, want %d", ws[0], ws[1], calls, wantCalls)
		}
		if 10*calls > n*rounds {
			t.Errorf("workers=%d shards=%d: %d guard evaluations over %d rounds of %d processes: quiet processes are not skipped",
				ws[0], ws[1], calls, rounds, n)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Rounds != ref.Rounds || res.Sent != ref.Sent || res.Delivered != ref.Delivered ||
			res.DroppedCrash != ref.DroppedCrash || !res.Final.Equal(ref.Final) {
			t.Errorf("workers=%d shards=%d: result differs from workers=1 shards=1", ws[0], ws[1])
		}
	}
}
