package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakstab/internal/cli"
	"weakstab/internal/experiments"
	"weakstab/internal/obs"
)

// TestList checks that -list prints every registered experiment.
func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.All() {
		if line := fmt.Sprintf("%-5s %s\n", e.ID, e.Title); !strings.Contains(out.String(), line) {
			t.Errorf("-list lacks %q:\n%s", line, out.String())
		}
	}
}

// TestRunOneMatchesGolden checks that -run E1 -quick prints the E1
// section of the full quick run's golden, under the paper-claim line
// that only a single-experiment run prints.
func TestRunOneMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "stabbench_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	header, rest, _ := strings.Cut(string(raw), "\n")
	body, _, found := strings.Cut(rest, "\n\n==== E2 ")
	if !strings.HasPrefix(header, "==== E1 ") || !found {
		t.Fatalf("golden does not open with an E1 section followed by E2:\n%.300s", raw)
	}
	exp, _ := experiments.ByID("E1")
	want := header + "\npaper claim: " + exp.PaperClaim + "\n\n" + body + "\n"
	var out strings.Builder
	if err := run([]string{"-run", "E1", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("-run E1 -quick differs from the golden's E1 section:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestBadUsage checks the usage failures: an undefined flag, -h, and an
// unknown experiment, which is a usage error recorded in the manifest.
func TestBadUsage(t *testing.T) {
	if err := run([]string{"-bogus"}, &strings.Builder{}); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(-bogus) = %v, want cli.ErrParse", err)
	}
	if err := run([]string{"-h"}, &strings.Builder{}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
	manifest := filepath.Join(t.TempDir(), "run.json")
	runErr := run([]string{"-run", "E99", "-manifest", manifest}, &strings.Builder{})
	if !errors.Is(runErr, cli.ErrUsage) {
		t.Fatalf("run(-run E99) = %v, want cli.ErrUsage", runErr)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("run(-run E99): no manifest: %v", err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, raw)
	}
	if m.Command != "stabbench" || m.Error != runErr.Error() {
		t.Errorf("manifest (command %q, error %q), want (stabbench, %q)", m.Command, m.Error, runErr)
	}
}
