package main

// Golden-output tests for the CLI glue: flag combinations drive run()
// against an in-memory writer and the rendered reports are pinned
// byte-for-byte (testdata/*.golden). Every analysis underneath is
// deterministic — worker counts, caching and incremental sweeps are all
// pinned bit-identical by the library tests — so the CLI output is too.
// Regenerate with
//
//	go test ./cmd/stabcheck -run TestGolden -update

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"weakstab/internal/cli"
	"weakstab/internal/service"
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
		t.Errorf("output of stabcheck %s differs from %s:\n--- got ---\n%s--- want ---\n%s",
			strings.Join(args, " "), path, sb.String(), want)
	}
}

func TestGoldenReport(t *testing.T) {
	runGolden(t, "report_tokenring6", "-alg", "tokenring", "-n", "6")
}

func TestGoldenKFaults(t *testing.T) {
	runGolden(t, "kfaults1_tokenring6", "-alg", "tokenring", "-n", "6", "-kfaults", "1")
}

func TestGoldenKFaultsZero(t *testing.T) {
	// Boundary: -kfaults 0 quantifies over exactly the legitimate set —
	// trivially converged verdicts over |L| = n·m configurations.
	runGolden(t, "kfaults0_tokenring6", "-alg", "tokenring", "-n", "6", "-kfaults", "0")
}

func TestGoldenReachableKFaults(t *testing.T) {
	runGolden(t, "reachable_kfaults1_tokenring6", "-alg", "tokenring", "-n", "6", "-reachable", "-kfaults", "1")
}

func TestGoldenKMax(t *testing.T) {
	runGolden(t, "kmax3_tokenring6", "-alg", "tokenring", "-n", "6", "-kmax", "3")
}

func TestGoldenKMaxUnbroken(t *testing.T) {
	runGolden(t, "kmax2_dijkstra4", "-alg", "dijkstra", "-n", "4", "-k", "4", "-kmax", "2")
}

func TestGoldenMC(t *testing.T) {
	runGolden(t, "mc_tokenring6", "-alg", "tokenring", "-n", "6", "-mc", "-trials", "2000")
}

func TestGoldenMCEarlyStop(t *testing.T) {
	runGolden(t, "mc_ci_herman7", "-alg", "herman", "-n", "7", "-policy", "synchronous", "-mc", "-ci", "0.5")
}

// TestGoldenMCWorkerInvariance reruns the -mc goldens with adversarial
// worker counts: the estimate must stay byte-identical — the CLI face of
// the sampler's determinism contract. The herman(11) run with a 4-step
// budget censors most of its walkers, so it drives the censoring path
// end to end. The nine tokenring(8) walkers hit after 6 to 36 steps, on
// both sides of the hit-time histogram's limit (the walker count), so
// their summary reads the counts and the sorted overflow together.
func TestGoldenMCWorkerInvariance(t *testing.T) {
	for _, w := range []string{"1", "7"} {
		runGolden(t, "mc_tokenring6", "-alg", "tokenring", "-n", "6", "-mc", "-trials", "2000", "-workers", w)
		runGolden(t, "json_mc_herman9_distributed", "-alg", "herman", "-n", "9", "-policy", "distributed", "-mc", "-trials", "20000", "-json", "-workers", w)
		runGolden(t, "json_mc_herman11_censored", "-alg", "herman", "-n", "11", "-policy", "synchronous", "-mc", "-mc-steps", "4", "-json", "-workers", w)
	}
	for _, w := range []string{"1", "3", "7"} {
		runGolden(t, "json_mc_tokenring8_few", "-alg", "tokenring", "-n", "8", "-mc", "-trials", "9", "-json", "-workers", w)
	}
}

// The -json goldens pin the shared service result schema: these are the
// exact bytes stabserve's GET /jobs/{id}/result serves for the same
// request (the CI smoke job diffs the two surfaces).
func TestGoldenJSONReport(t *testing.T) {
	runGolden(t, "json_report_tokenring6", "-alg", "tokenring", "-n", "6", "-json")
}

func TestGoldenJSONKFaults(t *testing.T) {
	runGolden(t, "json_kfaults1_tokenring6", "-alg", "tokenring", "-n", "6", "-kfaults", "1", "-json")
}

func TestGoldenJSONKMax(t *testing.T) {
	runGolden(t, "json_kmax3_tokenring6", "-alg", "tokenring", "-n", "6", "-kmax", "3", "-json")
}

func TestGoldenJSONMC(t *testing.T) {
	runGolden(t, "json_mc_tokenring6", "-alg", "tokenring", "-n", "6", "-mc", "-trials", "2000", "-json")
}

// TestGoldenJSONMCHerman11 pins a sampler run over rows up to 2,048
// successors wide (herman(11) under the synchronous daemon), the row
// shape the tokenring golden never reaches.
func TestGoldenJSONMCHerman11(t *testing.T) {
	runGolden(t, "json_mc_herman11", "-alg", "herman", "-n", "11", "-policy", "synchronous", "-mc", "-trials", "20000", "-json")
}

// TestGoldenJSONMCHerman9Distributed pins a sampler run over rows whose
// degree is a power of two but whose probabilities are not uniform
// (herman(9) under the distributed daemon), next to rows that are.
func TestGoldenJSONMCHerman9Distributed(t *testing.T) {
	runGolden(t, "json_mc_herman9_distributed", "-alg", "herman", "-n", "9", "-policy", "distributed", "-mc", "-trials", "20000", "-json")
}

// TestGoldenJSONReachableKFaultsTokenring13 pins hitting times solved by
// the red-black Gauss–Seidel kernel: the 52,182-state closure of
// tokenring(13,3)'s 2-fault ball has transient blocks of 8,580 and
// 19,305 states, above the size where the tokenring(6) goldens stay.
func TestGoldenJSONReachableKFaultsTokenring13(t *testing.T) {
	runGolden(t, "json_reachable_kfaults2_tokenring13", "-alg", "tokenring", "-n", "13", "-k", "3", "-reachable", "-kfaults", "2", "-json")
}

// TestDefaultTopologyMatchesService pins that stabcheck's -topology
// default leaves the choice to the algorithm, as a minimal stabserve
// request does: coloring runs on the ring, tree algorithms on the chain.
func TestDefaultTopologyMatchesService(t *testing.T) {
	for _, req := range []service.Request{
		{Alg: "coloring", N: 5},
		{Alg: "leadertree", N: 4},
	} {
		var got strings.Builder
		if err := run([]string{"-alg", req.Alg, "-n", strconv.Itoa(req.N), "-json"}, &got); err != nil {
			t.Fatal(err)
		}
		resp, err := service.Execute(t.Context(), req, service.Deps{})
		if err != nil {
			t.Fatal(err)
		}
		var direct strings.Builder
		if err := resp.WriteJSON(&direct); err != nil {
			t.Fatal(err)
		}
		if got.String() != direct.String() {
			t.Errorf("stabcheck -alg %s -n %d -json differs from Execute(%+v):\n--- stabcheck ---\n%s--- Execute ---\n%s",
				req.Alg, req.N, req, got.String(), direct.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-alg", "coloring", "-n", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "243 configurations") {
		t.Errorf("stabcheck -alg coloring -n 5 does not explore the ring's 3^5 configurations:\n%s", out.String())
	}
}

func TestGoldenCacheWarmRuns(t *testing.T) {
	// Cold and warm runs through one cache directory must render
	// byte-identical output, for the report, the ball pipeline and the
	// sweep alike.
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"report_tokenring6", []string{"-alg", "tokenring", "-n", "6", "-cache", dir}},
		{"reachable_kfaults1_tokenring6", []string{"-alg", "tokenring", "-n", "6", "-reachable", "-kfaults", "1", "-cache", dir}},
		{"kmax3_tokenring6", []string{"-alg", "tokenring", "-n", "6", "-kmax", "3", "-cache", dir}},
		{"mc_tokenring6", []string{"-alg", "tokenring", "-n", "6", "-mc", "-trials", "2000", "-cache", dir}},
	} {
		runGolden(t, tc.name, tc.args...) // cold populates the cache
		runGolden(t, tc.name, tc.args...) // warm must render identically
	}
}

// TestFlagConflicts pins the refused flag combinations. Those stabcheck
// rejects itself are usage errors (exit 2); those service.Request's
// validation rejects, and unknown names, fail the run (exit 1).
func TestFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
		usage   bool
	}{
		{[]string{"-kmax", "2", "-kfaults", "1"}, "not both", false},
		{[]string{"-kmax", "2", "-reachable"}, "drop -reachable", false},
		{[]string{"-kmax", "2", "-from", "0,0,0,0,0"}, "drop -from", false},
		{[]string{"-kmax", "2", "-witness"}, "drop -witness", true},
		{[]string{"-kmax", "2", "-lasso"}, "drop -witness", true},
		{[]string{"-alg", "nosuch"}, "unknown algorithm", false},
		{[]string{"-mc", "-kfaults", "1"}, "drop -kfaults/-kmax", true},
		{[]string{"-mc", "-kmax", "2"}, "drop -kfaults/-kmax", true},
		{[]string{"-mc", "-witness"}, "drop -witness/-lasso", true},
		{[]string{"-mc", "-lasso"}, "drop -witness/-lasso", true},
		{[]string{"-trials", "5000"}, "add -mc", true},
		{[]string{"-ci", "0.5"}, "add -mc", true},
		{[]string{"-mc", "-trials", "-3"}, "trials must be >= 0", false},
		{[]string{"-json", "-witness"}, "drop -witness/-lasso", true},
		{[]string{"-json", "-lasso"}, "drop -witness/-lasso", true},
		{[]string{"-alg", "tokenring", "-n", "3", "-from", "1,0,2"}, "add -reachable", false},
	} {
		err := run(tc.args, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
		}
		if errors.Is(err, cli.ErrUsage) != tc.usage {
			t.Errorf("run(%v) = %v: errors.Is(err, cli.ErrUsage) = %v, want %v", tc.args, err, !tc.usage, tc.usage)
		}
	}
	// -h prints the usage (to the FlagSet's output) and succeeds; an
	// unknown flag is reported once by the FlagSet and surfaces only as
	// the already-reported sentinel.
	if err := run([]string{"-h"}, &strings.Builder{}); err != nil {
		t.Errorf("run(-h) = %v, want nil (help is not a failure)", err)
	}
	if err := run([]string{"-bogus"}, &strings.Builder{}); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(-bogus) = %v, want cli.ErrParse", err)
	}
}
