package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weakstab/internal/obs"
)

// TestRunFinishesEveryPath checks Run's contract: -h and flag errors
// return before the body, the profiling flags exist only when asked for,
// a body error is returned and recorded in the manifest with the
// profiles stopped, and a teardown error is returned when the body
// succeeded.
func TestRunFinishesEveryPath(t *testing.T) {
	quiet := func() *flag.FlagSet {
		fs := FlagSet("t")
		fs.SetOutput(io.Discard)
		return fs
	}
	called := false
	ok := func(*ObsRun) error { called = true; return nil }
	for _, tc := range []struct {
		args    []string
		profile bool
		want    error
	}{
		{[]string{"-h"}, false, nil},
		{[]string{"-bogus"}, true, ErrParse},
		{[]string{"-cpuprofile", "cpu.out"}, false, ErrParse},
	} {
		if err := Run(quiet(), tc.args, tc.profile, ok); err != tc.want || called {
			t.Errorf("Run(%v, profile %v) = %v, body run %v; want %v before the body", tc.args, tc.profile, err, called, tc.want)
		}
	}

	dir := t.TempDir()
	manifest, cpu := filepath.Join(dir, "run.json"), filepath.Join(dir, "cpu.out")
	boom := errors.New("boom")
	err := Run(quiet(), []string{"-manifest", manifest, "-cpuprofile", cpu}, true, func(*ObsRun) error { return boom })
	if err != boom {
		t.Fatalf("Run with a failing body = %v, want %v", err, boom)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil || m.Command != "t" || m.Error != "boom" {
		t.Errorf("manifest (command %q, error %q, %v), want (t, boom)", m.Command, m.Error, err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile not stopped and written: %v", err)
	}

	err = Run(quiet(), []string{"-manifest", filepath.Join(dir, "missing", "run.json")}, false, ok)
	if !called || err == nil || !strings.HasPrefix(err.Error(), "manifest:") {
		t.Errorf("Run with an unwritable manifest = %v (body run %v), want the manifest error", err, called)
	}
}
