package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files with the observed output")

// recordedRunHash is the SHA-256 of everything a recorded run reports:
// convergence, the message counters, the final configuration, the
// canonical trace and the fault counters.
func recordedRunHash(res Result, counts []Count) string {
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	put(res.Converged, int64(res.Rounds), res.Sent, res.Delivered, res.DroppedCrash)
	put(int64(len(res.Final)))
	for _, v := range res.Final {
		put(int64(v))
	}
	put(int64(len(res.Trace)))
	for _, ev := range res.Trace {
		put(ev.Round, ev.Kind, ev.Proc, ev.Edge, ev.Seq, ev.Copy, ev.Value)
	}
	put(int64(len(counts)))
	for _, c := range counts {
		put(int64(len(c.Name)), []byte(c.Name), c.N)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRecordedRunGolden pins recorded runs across versions of the engine:
// TestDeterminismAcrossSharding compares the engine only with itself, so a
// change that moves every sharding the same way would pass it unseen. Each
// case is hashed at several worker/shard settings against one committed
// golden. The latency:geom:8 stack delays some messages by far more rounds
// than the calendar starts with, so it pins the calendar's growth path.
// Regenerate (only for a deliberate change of the simulation) with
//
//	go test ./internal/netsim -run TestRecordedRunGolden -update
func TestRecordedRunGolden(t *testing.T) {
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
	cases := []struct {
		name      string
		faults    func() []Fault
		maxRounds int
		minDelay  int32 // the longest delay must reach this (crash-free stacks only)
	}{
		{"full-stack", faultStack, 60, 0},
		{"latency-geom-8", func() []Fault { return []Fault{&Latency{D: Geometric{Mean: 8}}} }, 200, 2 * calInitLen},
	}
	var lines []string
	for _, c := range cases {
		var ref string
		for _, ws := range [][2]int{{1, 1}, {2, 3}, {3, 64}} {
			faults := c.faults()
			res, err := RunOnContext(t.Context(), top, a, init, Options{
				MaxRounds: c.maxRounds, Seed: 99, Faults: faults,
				Workers: ws[0], Shards: ws[1], Record: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace) == 0 {
				t.Fatalf("%s: empty trace", c.name)
			}
			// Without crashes every process publishes once a round, so
			// Round-Seq is a delivery's delay.
			longest := int32(0)
			for _, ev := range res.Trace {
				longest = max(longest, ev.Round-int32(ev.Seq))
			}
			if longest < c.minDelay {
				t.Fatalf("%s: longest delay %d, want >= %d", c.name, longest, c.minDelay)
			}
			sum := recordedRunHash(res, FaultCounts(faults))
			if ref == "" {
				ref = sum
			} else if sum != ref {
				t.Fatalf("%s: workers=%d shards=%d hash %s, workers=1 shards=1 %s", c.name, ws[0], ws[1], sum, ref)
			}
		}
		lines = append(lines, fmt.Sprintf("%s %s", c.name, ref))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "recorded_run.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("recorded runs changed:\n got: %s\nwant: %s", got, want)
	}
}
