package main

// Golden-output tests for the network-simulation CLI. Every run is a pure
// function of (instance, fault stack, seed) — the backend is bit-identical
// across worker and shard counts — so the rendered reports are pinned
// byte-for-byte. Regenerate with
//
//	go test ./cmd/stabnetsim -run TestGolden -update

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
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
		t.Errorf("output of stabnetsim %s differs from %s:\n--- got ---\n%s--- want ---\n%s",
			strings.Join(args, " "), path, sb.String(), want)
	}
}

func TestGoldenReliable(t *testing.T) {
	runGolden(t, "coloring64_reliable",
		"-alg", "coloring", "-n", "64", "-trials", "30", "-net", "loss:0.05")
}

func TestGoldenHerman(t *testing.T) {
	runGolden(t, "herman9_reliable",
		"-alg", "herman", "-n", "9", "-trials", "50")
}

func TestGoldenRestabilizeFaultStack(t *testing.T) {
	runGolden(t, "coloring256_restab_fullstack",
		"-alg", "coloring", "-n", "256", "-restabilize", "24", "-trials", "12",
		"-net", "latency:uniform:1:2,ge:0.05:0.3:0.01:0.5,dup:0.05,reorder:0.05:3,corrupt:0.01,crash:0.001:3",
		"-max-rounds", "5000")
}

// TestGoldenRestabilizeLoss pins the i.i.d.-loss-only stack of the
// netsim-restab benchmark workload on its exact instance.
func TestGoldenRestabilizeLoss(t *testing.T) {
	runGolden(t, "coloring8192_restab_loss",
		"-alg", "coloring", "-n", "8192", "-restabilize", "800", "-trials", "3",
		"-check-every", "2", "-net", "loss:0.05")
}

// TestGoldenRestabilizeCrashHold pins crash-recover in hold mode: a
// recovered process resumes with its pre-crash state and the views it
// held when it went down, so neither its state nor its guard inputs
// change across the outage.
func TestGoldenRestabilizeCrashHold(t *testing.T) {
	runGolden(t, "coloring2048_restab_hold", crashHoldArgs...)
}

var crashHoldArgs = []string{
	"-alg", "coloring", "-n", "2048", "-restabilize", "200", "-trials", "3",
	"-check-every", "2", "-max-rounds", "3000",
	"-net", "latency:uniform:1:2,loss:0.05,crash:0.0005:2:hold",
}

// TestGoldenWorkerInvariance reruns a golden case with adversarial worker
// and shard counts: the report must stay byte-identical — the CLI face of
// the backend's determinism contract.
func TestGoldenWorkerInvariance(t *testing.T) {
	for _, ws := range [][2]string{{"1", "1"}, {"4", "7"}} {
		runGolden(t, "coloring256_restab_fullstack",
			"-alg", "coloring", "-n", "256", "-restabilize", "24", "-trials", "12",
			"-net", "latency:uniform:1:2,ge:0.05:0.3:0.01:0.5,dup:0.05,reorder:0.05:3,corrupt:0.01,crash:0.001:3",
			"-max-rounds", "5000",
			"-workers", ws[0], "-shards", ws[1])
	}
	runGolden(t, "coloring8192_restab_loss",
		"-alg", "coloring", "-n", "8192", "-restabilize", "800", "-trials", "3",
		"-check-every", "2", "-net", "loss:0.05", "-workers", "4", "-shards", "13")
	runGolden(t, "coloring2048_restab_hold",
		append(slices.Clone(crashHoldArgs), "-workers", "4", "-shards", "13")...)
}

// TestFailureRateSurfaced pins the censored-batch rendering: when some
// trials exhaust the round budget, the summary line must carry the
// converged/attempted denominator and the failure rate must print before
// the distribution — the statistics describe the converged subset only.
func TestFailureRateSurfaced(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-alg", "herman", "-n", "9", "-trials", "10", "-max-rounds", "1"}, &sb)
	if err == nil {
		t.Fatal("a batch with failures must return an error")
	}
	out := sb.String()
	iSummary := strings.Index(out, "convergence rounds: ")
	iRate := strings.Index(out, "failure rate: ")
	iDist := strings.Index(out, "distribution: ")
	if iSummary < 0 || iRate < 0 {
		t.Fatalf("missing summary or failure-rate line:\n%s", out)
	}
	if !strings.Contains(out, "/10)") {
		t.Fatalf("summary lacks the converged/attempted denominator:\n%s", out)
	}
	if iDist >= 0 && iRate > iDist {
		t.Fatalf("failure rate printed after the distribution:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "nope"},
		{"-alg", "coloring", "-n", "64", "-net", "loss:2"},
		{"-alg", "coloring", "-n", "64", "-net", "warp:0.5"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	if err := run([]string{"-bogus"}, &strings.Builder{}); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(-bogus) = %v, want cli.ErrParse", err)
	}
	if err := run([]string{"-h"}, &strings.Builder{}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
}
