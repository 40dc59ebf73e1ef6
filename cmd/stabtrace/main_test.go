package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakstab/internal/cli"
	"weakstab/internal/obs"
)

// TestTrace pins that a trace is a pure function of its flags.
func TestTrace(t *testing.T) {
	args := []string{"-alg", "tokenring", "-n", "5", "-steps", "6"}
	var a, b strings.Builder
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two runs of %v differ:\n%s---\n%s", args, a.String(), b.String())
	}
	if lines := strings.Count(a.String(), "\n"); lines != 9 {
		t.Errorf("trace has %d lines, want a header, a column row and steps 0..6:\n%s", lines, a.String())
	}
}

var update = flag.Bool("update", false, "rewrite the golden file with the observed output")

// TestGoldenHermanDistributed pins a trace byte for byte. Herman's ring
// under the distributed daemon draws from one generator in both the
// scheduler's Select and the coin tosses of Step, so the golden also pins
// the order of those draws. Regenerate with
//
//	go test ./cmd/stabtrace -run TestGolden -update
func TestGoldenHermanDistributed(t *testing.T) {
	args := []string{"-alg", "herman", "-n", "7", "-sched", "distributed"}
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "herman7_distributed.golden")
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
		t.Errorf("output of stabtrace %s differs from %s:\n--- got ---\n%s--- want ---\n%s",
			strings.Join(args, " "), path, sb.String(), want)
	}
}

// TestBadUsage checks the two usage failures, an undefined flag and a
// run with no -alg, and that -h is not a failure.
func TestBadUsage(t *testing.T) {
	if err := run([]string{"-fig", "1"}, &strings.Builder{}); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(-fig 1) = %v, want cli.ErrParse", err)
	}
	if err := run([]string{"-h"}, &strings.Builder{}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	if err := run(nil, &strings.Builder{}); !errors.Is(err, errUsage) {
		t.Errorf("run() = %v, want errUsage", err)
	}
}

// TestFailingRunWritesManifest checks that a run failing after flag
// parsing still finishes its observability scope: the manifest is
// written with the error recorded, and the trace file is closed.
func TestFailingRunWritesManifest(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "nosuch"},
		{"-alg", "tokenring", "-sched", "bogus"},
		{},
	} {
		dir := t.TempDir()
		manifest, tracePath := filepath.Join(dir, "run.json"), filepath.Join(dir, "trace.jsonl")
		args = append(args, "-manifest", manifest, "-trace-out", tracePath)
		runErr := run(args, &strings.Builder{})
		if runErr == nil {
			t.Fatalf("run(%v) succeeded", args)
		}
		raw, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatalf("run(%v): no manifest: %v", args, err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("run(%v): manifest is not valid JSON: %v\n%s", args, err, raw)
		}
		if m.Command != "stabtrace" || m.Error != runErr.Error() {
			t.Errorf("run(%v): manifest (command %q, error %q), want (stabtrace, %q)", args, m.Command, m.Error, runErr)
		}
		if _, err := os.Stat(tracePath); err != nil {
			t.Errorf("run(%v): trace file missing: %v", args, err)
		}
	}
}
