package experiments

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12a", "E12b", "E12c", "E12d", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"}
	if len(all) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(wantIDs))
	}
	for i, want := range wantIDs {
		if all[i].ID != want {
			t.Fatalf("experiment %d = %s, want %s (ordering)", i, all[i].ID, want)
		}
		if all[i].Title == "" || all[i].PaperClaim == "" || all[i].Run == nil {
			t.Fatalf("experiment %s incomplete", all[i].ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

func TestIDOrdering(t *testing.T) {
	if !idLess("E2", "E10") {
		t.Fatal("E2 must sort before E10")
	}
	if !idLess("E12a", "E12b") {
		t.Fatal("E12a must sort before E12b")
	}
	if idLess("E12", "E9") {
		t.Fatal("E12 must sort after E9")
	}
}

// quickGolden is `stabbench -quick` stdout: every experiment's section in
// registry order, then the closing verdict line.
const quickGolden = "testdata/stabbench_quick.golden"

// goldenSection returns the section of the quick golden that RunAll writes
// for e: its header, its report and the blank separator line.
func goldenSection(golden string, e Experiment) (string, bool) {
	header := fmt.Sprintf("==== %s — %s ====\n", e.ID, e.Title)
	i := strings.Index(golden, header)
	if i < 0 {
		return "", false
	}
	rest := golden[i+len(header):]
	j := strings.Index(rest, "\n==== ")
	if j < 0 {
		j = strings.Index(rest, "\nall experiments verified")
	}
	if j < 0 {
		return "", false
	}
	return header + rest[:j+1], true
}

// TestEveryExperimentPassesQuick runs the entire suite in quick mode: each
// experiment returns an error iff the measured behavior contradicts the
// paper, so this is the end-to-end reproduction check. Each report must
// also equal its section of the committed `stabbench -quick` stdout, so
// the paper run is pinned byte for byte (E20's section pins the
// message-passing backend at the experiment level). Regenerate, only for
// a deliberate change of an experiment's output, with
//
//	go run ./cmd/stabbench -quick > internal/experiments/testdata/stabbench_quick.golden
func TestEveryExperimentPassesQuick(t *testing.T) {
	raw, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	if !strings.HasSuffix(golden, "\nall experiments verified against the paper's claims\n") {
		t.Fatalf("%s does not end with the closing verdict line", quickGolden)
	}
	var all strings.Builder
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(t.Context(), &sb, Options{Quick: true, Seed: 1}); err != nil {
				t.Fatalf("%s contradicts the paper: %v\noutput:\n%s", e.ID, err, sb.String())
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no report", e.ID)
			}
			got := fmt.Sprintf("==== %s — %s ====\n", e.ID, e.Title) + sb.String() + "\n"
			all.WriteString(got)
			want, ok := goldenSection(golden, e)
			if !ok {
				t.Fatalf("%s has no section in %s", e.ID, quickGolden)
			}
			if got != want {
				t.Fatalf("%s report differs from %s:\n%s", e.ID, quickGolden, firstDiff(got, want))
			}
		})
	}
	if !t.Failed() && all.String()+"all experiments verified against the paper's claims\n" != golden {
		t.Fatalf("%s holds sections beyond the registry's experiments", quickGolden)
	}
}

// firstDiff renders the first differing line of got and want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func TestRunAllStopsOnFailure(t *testing.T) {
	// RunAll over the real registry (quick) must succeed end to end.
	if err := RunAll(t.Context(), io.Discard, Options{Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryExperimentPassesFull runs the suite at full (paper) sizes — the
// configuration plain `stabbench` runs; the quick suite's output is pinned
// in testdata/stabbench_quick.golden. Skipped with -short.
func TestEveryExperimentPassesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if err := e.Run(t.Context(), io.Discard, Options{Seed: 1}); err != nil {
				t.Fatalf("%s contradicts the paper at full size: %v", e.ID, err)
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Fatalf("default seed = %d", o.seed())
	}
	if o.trials(100, 10) != 100 {
		t.Fatal("full trials default wrong")
	}
	o.Quick = true
	if o.trials(100, 10) != 10 {
		t.Fatal("quick trials wrong")
	}
	o.Trials = 7
	if o.trials(100, 10) != 7 {
		t.Fatal("override trials wrong")
	}
	o.Seed = 5
	if o.seed() != 5 {
		t.Fatal("seed override wrong")
	}
}

func TestDifferentSeedsStillVerify(t *testing.T) {
	// The Monte-Carlo experiments must verify under several seeds, not
	// just the default.
	for _, seed := range []int64{2, 3} {
		for _, id := range []string{"E12b", "E12d", "E20"} {
			e, ok := ByID(id)
			if !ok {
				t.Fatal("missing experiment")
			}
			if err := e.Run(t.Context(), io.Discard, Options{Quick: true, Seed: seed}); err != nil {
				t.Fatalf("%s fails under seed %d: %v", id, seed, err)
			}
		}
	}
}
