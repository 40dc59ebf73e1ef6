package main

// Golden tests pin stabsim's output byte for byte. Regenerate with
//
//	go test ./cmd/stabsim -run TestGolden -update

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakstab/internal/cli"
)

var update = flag.Bool("update", false, "rewrite the golden files with the observed output")

func runGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if sb.String() != string(want) {
		t.Errorf("output of stabsim %s differs from %s:\n--- got ---\n%s--- want ---\n%s",
			strings.Join(args, " "), path, sb.String(), want)
	}
}

// The transformed ring draws from the trial's generator in both the
// scheduler's Select and the coin tosses of Step, so these goldens pin
// the stepping loop's RNG consumption as well as its step counts.

func TestGoldenTrials(t *testing.T) {
	runGolden(t, "trials_transform_tokenring8",
		"-alg", "tokenring", "-n", "8", "-transform", "-sched", "distributed", "-trials", "50")
}

func TestGoldenFaults(t *testing.T) {
	runGolden(t, "faults_transform_tokenring8",
		"-alg", "tokenring", "-n", "8", "-transform", "-sched", "distributed", "-faults", "2", "-bursts", "30")
}

// TestFailuresAndBadUsage checks the exits that are not a plain report:
// a batch with non-converging runs, an undefined flag, -h and a bad
// scheduler name.
func TestFailuresAndBadUsage(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "tokenring", "-n", "8", "-trials", "3", "-max-steps", "1"}, &sb)
	if !errors.Is(err, errFailures) || !strings.Contains(sb.String(), "FAILURES:") {
		t.Errorf("run with a 1-step budget = %v, output %q; want errFailures and a FAILURES line", err, sb.String())
	}
	if err := run([]string{"-nosuch"}, &strings.Builder{}); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(-nosuch) = %v, want cli.ErrParse", err)
	}
	if err := run([]string{"-h"}, &strings.Builder{}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if err := run([]string{"-sched", "bogus"}, &strings.Builder{}); err == nil {
		t.Error("run(-sched bogus) succeeded")
	}
}

// TestDefaultTopology pins that -topology defaults to the algorithm's own
// choice, as in stabcheck, stabnetsim and stabserve: the ring for
// coloring, the chain for tree algorithms.
func TestDefaultTopology(t *testing.T) {
	for alg, want := range map[string]string{"coloring": "coloring(ring(5))", "leadertree": "chain(5)"} {
		var sb strings.Builder
		if err := run([]string{"-alg", alg, "-n", "5", "-trials", "3"}, &sb); err != nil {
			t.Fatalf("run(-alg %s): %v", alg, err)
		}
		if !strings.Contains(sb.String(), want) {
			t.Errorf("stabsim -alg %s -n 5 does not run %s:\n%s", alg, want, sb.String())
		}
	}
}
