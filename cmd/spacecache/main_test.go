package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/cli"
	"weakstab/internal/obs"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// primeCache populates a temp cache with two spaces whose last-use order is
// known (ring 4 older than ring 5) and returns the directory and the keys
// oldest-first.
func primeCache(t *testing.T) (dir string, keys []string) {
	t.Helper()
	dir = t.TempDir()
	cache, err := spacecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.CentralPolicy
	for i, n := range []int{4, 5} {
		a, err := tokenring.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cache.BuildSpaceContext(t.Context(), a, pol, statespace.Options{}); err != nil {
			t.Fatal(err)
		}
		key := spacecache.Key(a, pol)
		keys = append(keys, key)
		stamp := time.Now().Add(-time.Hour + time.Duration(i)*time.Minute)
		if err := os.Chtimes(filepath.Join(dir, key+".space"), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	return dir, keys
}

func TestStats(t *testing.T) {
	dir, keys := primeCache(t)
	var out strings.Builder
	if err := run([]string{"stats", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "2 entries,") {
		t.Fatalf("stats output missing totals:\n%s", got)
	}
	// Oldest first: the eviction order gc would use.
	if i, j := strings.Index(got, keys[0]), strings.Index(got, keys[1]); i < 0 || j < 0 || i > j {
		t.Fatalf("stats not oldest-first (%d vs %d):\n%s", i, j, got)
	}
}

func TestGCCommand(t *testing.T) {
	dir, keys := primeCache(t)
	var out strings.Builder
	if err := run([]string{"gc", "-dir", dir, "-max-bytes", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "2 entries deleted, 0 bytes remain") {
		t.Fatalf("gc output:\n%s", got)
	}
	if i, j := strings.Index(got, keys[0]), strings.Index(got, keys[1]); i < 0 || j < 0 || i > j {
		t.Fatalf("gc did not delete oldest-first:\n%s", got)
	}
	for _, key := range keys {
		if _, err := os.Stat(filepath.Join(dir, key+".space")); !os.IsNotExist(err) {
			t.Fatalf("entry %s survived gc -max-bytes 0", key)
		}
	}
}

func TestBadUsage(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{},                          // no subcommand
		{"prune", "-dir", "x"},      // unknown subcommand
		{"stats"},                   // missing -dir
		{"gc", "-dir", t.TempDir()}, // gc without -max-bytes
		{"gc", "-dir", filepath.Join(t.TempDir(), "nope")}, // checked before -dir is opened
	} {
		if err := run(args, &out); !errors.Is(err, cli.ErrUsage) {
			t.Fatalf("run(%q) = %v, want cli.ErrUsage", args, err)
		}
	}
	if err := run([]string{"stats", "-bogus"}, &out); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(stats -bogus) = %v, want cli.ErrParse", err)
	}
	if err := run([]string{"stats", "-h"}, &out); err != nil {
		t.Errorf("run(stats -h) = %v, want nil", err)
	}
	// Inspecting a nonexistent directory must fail, not create it.
	missing := filepath.Join(t.TempDir(), "nope")
	if err := run([]string{"stats", "-dir", missing}, &out); err == nil {
		t.Fatal("stats created a missing directory")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("stats left a directory behind")
	}
}

// TestFailingRunWritesManifest checks that a run failing after flag
// parsing still finishes its observability scope: the manifest is
// written with the error recorded, and the trace file is closed.
func TestFailingRunWritesManifest(t *testing.T) {
	for _, args := range [][]string{
		{"stats"},
		{"stats", "-dir", filepath.Join(t.TempDir(), "nope")},
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
		if m.Command != "spacecache stats" || m.Error != runErr.Error() {
			t.Errorf("run(%v): manifest (command %q, error %q), want (spacecache stats, %q)", args, m.Command, m.Error, runErr)
		}
		if _, err := os.Stat(tracePath); err != nil {
			t.Errorf("run(%v): trace file missing: %v", args, err)
		}
	}
}
