package service

// Exact work counters as a regression gate: five small instances run
// through the one job path (plus one netsim re-stabilization study), each
// on a fresh observer, and the named counters they leave are compared
// with testdata/counters.golden. A refactor that claims to move no work
// must leave the file unchanged; a change that does move work shows it as
// a line diff. Regenerate with
//
//	go test ./internal/service -run TestWorkCountersGolden -update

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"weakstab/internal/cli"
	"weakstab/internal/netsim"
	"weakstab/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files with the observed output")

// goldenCounters are the pinned counter families: a counter is pinned
// when its name equals one of these or starts with one followed by a dot.
// Every counter of these families comes out equal at 1 and 4 workers, so
// none is excluded. The counters outside them measure the request or the
// cache, not the work: mc.trials, mc.batches and sweep.radii follow the
// request, cache.* the cache's contents.
var goldenCounters = []string{
	"build", "frontier", "solver.blocks", "solver.gs_sweeps",
	"mc.steps", "netsim.sent", "netsim.delivered", "netsim.proc_rounds",
}

func pinned(name string) bool {
	for _, p := range goldenCounters {
		if name == p || strings.HasPrefix(name, p+".") {
			return true
		}
	}
	return false
}

// countersOf runs fn with a fresh observer and returns its pinned
// counters as "label name value" lines.
func countersOf(t *testing.T, label string, fn func(o *obs.Observer) error) []string {
	t.Helper()
	o := obs.New()
	if err := fn(o); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var lines []string
	for name, v := range o.Registry().Snapshot() {
		if pinned(name) {
			lines = append(lines, fmt.Sprintf("%s %s %d", label, name, v))
		}
	}
	slices.Sort(lines)
	return lines
}

func workCounters(t *testing.T, workers int) string {
	kfaults, kmax := 1, 2
	jobs := []struct {
		label string
		req   Request
	}{
		{"report", Request{Alg: "leadertree", Topology: "figure2", Policy: "distributed"}},
		{"sweep", Request{Alg: "dijkstra", N: 6, K: 6, KMax: &kmax}},
		{"reachable", Request{Alg: "tokenring", N: 11, K: 3, Reachable: true, KFaults: &kfaults}},
		{"mc", Request{Alg: "herman", N: 9, Policy: "distributed", Mode: ModeMC, Seed: 1, Trials: 2000}},
	}
	var lines []string
	for _, j := range jobs {
		j.req.Workers = workers
		lines = append(lines, countersOf(t, j.label, func(o *obs.Observer) error {
			_, err := Execute(context.Background(), j.req, Deps{Obs: o})
			return err
		})...)
	}
	lines = append(lines, countersOf(t, "netsim", func(o *obs.Observer) error {
		a, err := cli.Spec{Algorithm: "coloring", N: 200}.Build()
		if err != nil {
			return err
		}
		faults, err := cli.ParseFaults("latency:uniform:1:3,loss:0.05,dup:0.02")
		if err != nil {
			return err
		}
		_, err = netsim.RestabilizationContext(context.Background(), a, 3, 20,
			netsim.Options{Seed: 1, Faults: faults, Workers: workers, Shards: workers, Obs: o})
		return err
	})...)
	return strings.Join(lines, "\n") + "\n"
}

func TestWorkCountersGolden(t *testing.T) {
	path := filepath.Join("testdata", "counters.golden")
	for _, workers := range []int{1, 4} {
		got := workCounters(t, workers)
		if *update && workers == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("work counters at %d workers differ from %s:\n--- got ---\n%s--- want ---\n%s", workers, path, got, want)
		}
	}
}

// TestSolverCountersReachDepsObserver: with no process default installed,
// the hitting-time solver still reports to the observer Execute was given,
// the one the explored space carries.
func TestSolverCountersReachDepsObserver(t *testing.T) {
	prev := obs.SetDefault(nil)
	defer obs.SetDefault(prev)
	o := obs.New()
	req := Request{Alg: "leadertree", Topology: "figure2", Policy: "distributed"}
	if _, err := Execute(context.Background(), req, Deps{Obs: o}); err != nil {
		t.Fatal(err)
	}
	if got := o.Registry().Snapshot()["solver.gs_sweeps"]; got != 400 {
		t.Fatalf("solver.gs_sweeps = %d on the job's observer, want 400", got)
	}
}

// TestAnalysisPhasesReachDepsObserver: with no process default installed,
// a report job's checker and markov phases are timed on the observer
// Execute was given, next to its explore phase, so a job's manifest and
// feed show all three.
func TestAnalysisPhasesReachDepsObserver(t *testing.T) {
	prev := obs.SetDefault(nil)
	defer obs.SetDefault(prev)
	o := obs.New()
	req := Request{Alg: "leadertree", Topology: "figure2", Policy: "distributed"}
	if _, err := Execute(context.Background(), req, Deps{Obs: o}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range o.Phases() {
		got = append(got, p.Name)
	}
	if want := []string{"explore", "checker", "markov"}; !slices.Equal(got, want) {
		t.Fatalf("phases on the job's observer = %v, want %v", got, want)
	}
}
