package main

// Observability integration tests: instrumentation must never change the
// report (byte-identity), and the JSONL trace of a deterministic run is
// pinned golden after normalizing the one non-deterministic field class
// (timings). Regenerate with
//
//	go test ./cmd/stabcheck -run TestGoldenTrace -update

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// normTimes pins every timing field to 0 — t_ms (event clock), wall_ms
// and cpu_ms (phase spans) are the only non-deterministic values in a
// trace of a deterministic analysis.
var normTimes = regexp.MustCompile(`"(t_ms|wall_ms|cpu_ms)":[0-9eE.+-]+`)

func normalizeTrace(b []byte) string {
	return normTimes.ReplaceAllString(string(b), `"$1":0`)
}

// TestObsByteIdentity is the tentpole's core invariant: the report with
// -progress and -trace-out on is byte-identical to the plain one, for
// the full-space report, the ball pipeline and the incremental sweep.
func TestObsByteIdentity(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "tokenring", "-n", "6"},
		{"-alg", "tokenring", "-n", "6", "-reachable", "-kfaults", "1"},
		{"-alg", "tokenring", "-n", "6", "-kmax", "3"},
	} {
		var plain strings.Builder
		if err := run(args, &plain); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		manifest := filepath.Join(t.TempDir(), "run.json")
		obsArgs := append(append([]string{}, args...),
			"-progress", "-trace-out", trace, "-manifest", manifest)
		var instrumented strings.Builder
		if err := run(obsArgs, &instrumented); err != nil {
			t.Fatalf("run(%v): %v", obsArgs, err)
		}
		if plain.String() != instrumented.String() {
			t.Errorf("report of stabcheck %s changes under observability:\n--- plain ---\n%s--- instrumented ---\n%s",
				strings.Join(args, " "), plain.String(), instrumented.String())
		}
		if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
			t.Errorf("%v: trace file missing or empty (err=%v)", args, err)
		}
	}
}

// TestGoldenTrace pins the JSONL event stream of the incremental sweep:
// frontier.shell events emitted once per BFS level, after the level's
// parallel insert, with set-based counts, and sweep radii sealed in k
// order make the whole stream deterministic once timings are normalized.
func TestGoldenTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-alg", "tokenring", "-n", "6", "-kmax", "3", "-trace-out", trace}
	if err := run(args, &strings.Builder{}); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	got := normalizeTrace(raw)
	path := filepath.Join("testdata", "trace_kmax3_tokenring6.golden")
	if *update {
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
		t.Errorf("normalized trace differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestManifest checks the run manifest of a sweep: replay identity
// (command, args, seed), the phase timeline, and the deterministic
// metric values of the tokenring-6 sweep.
func TestManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	args := []string{"-alg", "tokenring", "-n", "6", "-kmax", "3", "-manifest", manifest}
	if err := run(args, &strings.Builder{}); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command string                  `json:"command"`
		Args    []string                `json:"args"`
		Seed    int64                   `json:"seed"`
		SeedSet bool                    `json:"seed_set"`
		WallMS  float64                 `json:"wall_ms"`
		Phases  []struct{ Name string } `json:"phases"`
		Metrics map[string]int64        `json:"metrics"`
		Error   string                  `json:"error"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, raw)
	}
	if m.Command != "stabcheck" || !m.SeedSet || m.Seed != 1 || m.Error != "" {
		t.Errorf("manifest identity = (%q, seed %d set=%v, error %q), want (stabcheck, 1, true, \"\")",
			m.Command, m.Seed, m.SeedSet, m.Error)
	}
	if len(m.Args) != len(args) {
		t.Errorf("manifest args = %v, want %v", m.Args, args)
	}
	if m.WallMS <= 0 {
		t.Errorf("manifest wall_ms = %v, want > 0", m.WallMS)
	}
	if len(m.Phases) == 0 || m.Phases[0].Name != "sweep" {
		t.Errorf("manifest phases = %+v, want a leading sweep phase", m.Phases)
	}
	// The sweep's exploration totals are pinned by the library tests —
	// the walk stops at k=1, the smallest radius breaking certain
	// convergence — and the registry must agree with them exactly.
	for name, want := range map[string]int64{
		"sweep.radii":     2,
		"frontier.states": 704,
	} {
		if got := m.Metrics[name]; got != want {
			t.Errorf("manifest metric %s = %d, want %d", name, got, want)
		}
	}
}

// TestManifestHasNoServiceCounters pins that a run executes its request
// directly: no job manager admits it, so the manifest counts no
// service.jobs.* or service.lru.* traffic, in any mode.
func TestManifestHasNoServiceCounters(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "tokenring", "-n", "5"},
		{"-alg", "tokenring", "-n", "5", "-kmax", "2"},
		{"-alg", "tokenring", "-n", "5", "-mc", "-trials", "100"},
	} {
		manifest := filepath.Join(t.TempDir(), "run.json")
		if err := run(append(args, "-manifest", manifest), &strings.Builder{}); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		raw, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Metrics map[string]int64 `json:"metrics"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("manifest is not valid JSON: %v\n%s", err, raw)
		}
		if len(m.Metrics) == 0 {
			t.Fatalf("run(%v): manifest holds no metrics", args)
		}
		for name := range m.Metrics {
			if strings.HasPrefix(name, "service.jobs.") || strings.HasPrefix(name, "service.lru.") {
				t.Errorf("run(%v): manifest counts %s = %d", args, name, m.Metrics[name])
			}
		}
	}
}
