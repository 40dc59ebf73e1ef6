package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func tinyEnv(t *testing.T) env {
	return env{seed: 1, sz: tinySizes, workdir: t.TempDir()}
}

// TestWorkloadsTiny runs every workload at the tiny sizes for one
// untraced op and one traced run, and checks that every op was correct
// and every metric was measured.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := tinyEnv(t)
			out, err := measured(w, e, 1)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed != 0 || len(out.errs) != 0 {
				t.Fatalf("untraced: %d attempted, %d failed: %v", out.attempted, out.failed, out.errs)
			}
			for _, m := range out.metrics {
				if !m.extra && !(m.Value > 0) {
					t.Errorf("untraced %s = %v, want > 0", m.Name, m.Value)
				}
			}

			spans := filepath.Join(e.workdir, "spans.jsonl")
			out, err = traced(w, e, spans)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || len(out.errs) != 0 {
				t.Fatalf("traced: %d failed: %v", out.failed, out.errs)
			}
			if len(out.metrics) != len(layerMetrics) {
				t.Errorf("traced run printed %d metrics, want %d", len(out.metrics), len(layerMetrics))
			}
			home := make(map[string]string)
			for _, m := range layerMetrics {
				home[m.name] = m.home
			}
			for _, m := range out.metrics {
				// The layers of a workload's home metrics are measured on
				// its own ops, never by a probe of another workload.
				if home[m.Name] == w.name && m.Note != "" {
					t.Errorf("%s came from a probe (%s), not from %s's own ops", m.Name, m.Note, w.name)
				}
				// A tiny op lasts about a millisecond, so one scheduler
				// pause between two spans costs it several points of
				// coverage; the full-size ops reach 0.99.
				if m.Name == mCoverage && m.Value < 0.9 {
					t.Errorf("%s = %.3f, want >= 0.9", m.Name, m.Value)
				}
			}
		})
	}
}

// TestResultLine checks that the last line of a report is the result
// object with exactly its four keys, the extra metrics left out.
func TestResultLine(t *testing.T) {
	var buf bytes.Buffer
	out := outcome{ops: 3, attempted: 3, metrics: []namedMetric{
		{Name: "ops_per_s", Value: 1.5, Unit: "1/s"},
		{Name: "failed_frac", Value: 0, Unit: "frac", extra: true},
	}}
	if err := printReport(&buf, options{workload: wReport, seed: 7}, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(got, want) {
		t.Fatalf("result keys %v, want %v", got, want)
	}
	res, err := lastResult(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != 1 || res.Metrics["ops_per_s"].Value != 1.5 {
		t.Fatalf("result %+v", res)
	}
	if !strings.Contains(buf.String(), "seed=7") || !strings.Contains(buf.String(), "nproc=") {
		t.Fatalf("report lacks its run header:\n%s", buf.String())
	}
}

// TestTailPercentile checks that a tail percentile counts only with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending: the function must sort
		}
		got, ok := tailPercentile(xs, tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d q=%g: got (%v, %v), want (%v, %v)", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(range(1, 11), n=4),
// which is [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
}

// TestSelfTimeOverlappingChildren checks that overlapping children are
// merged, and clipped to their parent, before they are subtracted.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 10},
		{Name: "a", ID: 1, Parent: 0, Start: 1, End: 4},
		{Name: "b", ID: 2, Parent: 0, Start: 3, End: 6},
		{Name: "c", ID: 3, Parent: 0, Start: 8, End: 12},
		{Name: "d", ID: 4, Parent: 2, Start: 4, End: 5},
	}
	self := selfTimes(spans)
	// op: [1,6] and [8,10] covered -> 10 - 7 = 3; b: [4,5] covered -> 2.
	want := []time.Duration{3, 3, 2, 4, 1}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if c := coverage(spans, self); math.Abs(c-0.7) > 1e-12 {
		t.Fatalf("coverage %v, want 0.7", c)
	}
}

// TestServeSequenceSeeded checks that equal seeds give identical request
// sequences, different seeds different ones, all inside the pool, with
// rank 0 the most requested.
func TestServeSequenceSeeded(t *testing.T) {
	pool := len(fullSizes.pool)
	a, b := serveSequence(3, pool, 5000), serveSequence(3, pool, 5000)
	if !slices.Equal(a, b) {
		t.Fatal("equal seeds gave different sequences")
	}
	if slices.Equal(a, serveSequence(4, pool, 5000)) {
		t.Fatal("different seeds gave the same sequence")
	}
	counts := make([]int, pool)
	for _, k := range a {
		if k < 0 || k >= pool {
			t.Fatalf("pool index %d out of range", k)
		}
		counts[k]++
	}
	if slices.Max(counts) != counts[0] {
		t.Fatalf("rank 0 is not the most requested: %v", counts)
	}
}

// TestLayerMetricsHaveHomes checks that every per-layer metric is either
// measured by every workload itself or names the workload that probes it.
func TestLayerMetricsHaveHomes(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range layerMetrics {
		if seen[m.name] {
			t.Errorf("duplicate metric %s", m.name)
		}
		seen[m.name] = true
		if m.home == "" && m.name != mCoverage && m.name != mOverhead {
			t.Errorf("%s has no home workload", m.name)
		}
		if m.home != "" {
			if _, err := workloadByName(m.home); err != nil {
				t.Errorf("%s: %v", m.name, err)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json describes this program:
// its workloads, the metrics an untraced run prints to the result line
// and the per-layer metrics a traced run prints, with their units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	w, err := workloadByName(wMC)
	if err != nil {
		t.Fatal(err)
	}
	out, err := measured(w, tinyEnv(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metric
	for _, m := range out.metrics {
		if !m.extra {
			e2e = append(e2e, metric{m.Name, m.Unit})
		}
	}
	if !slices.Equal(e2e, doc.EndToEnd) {
		t.Errorf("end-to-end metrics: program %v, BENCHMARK.json %v", e2e, doc.EndToEnd)
	}
	var layer []metric
	for _, m := range layerMetrics {
		layer = append(layer, metric{m.name, m.unit})
	}
	if !slices.Equal(layer, doc.PerLayer) {
		t.Errorf("per-layer metrics: program %v, BENCHMARK.json %v", layer, doc.PerLayer)
	}
}
