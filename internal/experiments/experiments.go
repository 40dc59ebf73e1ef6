// Package experiments regenerates every figure and theorem-level claim of
// the paper as a runnable experiment, plus the quantitative study of
// expected stabilization times that the paper's conclusion lists as future
// work. Each experiment prints a self-describing report (tables, traces,
// verdicts) to an io.Writer and returns an error if the measured behavior
// contradicts the paper's claim — so the suite doubles as an end-to-end
// verification harness. The stabbench CLI and the repository benchmarks are
// thin wrappers around this registry, and
// internal/experiments/testdata/stabbench_quick.golden records the output
// of the quick suite.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"weakstab/internal/checker"
	"weakstab/internal/core"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks instance sizes and trial counts for benchmarks.
	Quick bool
	// Seed drives all randomness (default 1).
	Seed int64
	// Trials overrides Monte-Carlo trial counts (0 keeps defaults).
	Trials int
	// Workers sets the state-space exploration worker-pool size
	// (0 means runtime.NumCPU()).
	Workers int
	// Cache, when non-nil, is an on-disk space cache: experiments that
	// explore overlapping instances (E12a/E12c share transformed token
	// rings; E18 and E19 reruns) load previously explored spaces instead of
	// rebuilding them. Results are bit-identical with or without it.
	Cache *spacecache.Cache
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) trials(def, quick int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return quick
	}
	return def
}

// analyze explores the full configuration space of a under pol and
// classifies it — the full-space report of the theorem-level experiments.
func analyze(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt Options) (*core.Report, error) {
	ts, err := statespace.BuildContext(ctx, a, pol, statespace.Options{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	return core.AnalyzeSpaceContext(ctx, ts)
}

// explore builds the full space of a under pol for the experiments that
// read single checker passes instead of a whole report.
func explore(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt Options) (*checker.Space, error) {
	ss, err := statespace.BuildContext(ctx, a, pol, statespace.Options{Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	return checker.FromSpace(ss), nil
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the experiment identifier (E1..E12d).
	ID string
	// Title names the paper artifact.
	Title string
	// PaperClaim summarizes what the paper asserts.
	PaperClaim string
	// Run executes the experiment, writing its report to w. It returns an
	// error iff the measured behavior contradicts the claim.
	Run func(ctx context.Context, w io.Writer, opt Options) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders E1 < E2 < ... < E10 < E12a numerically then by suffix.
func idLess(a, b string) bool {
	na, sa := splitID(a)
	nb, sb := splitID(b)
	if na != nb {
		return na < nb
	}
	return sa < sb
}

func splitID(id string) (int, string) {
	num := 0
	i := 1
	for i < len(id) && id[i] >= '0' && id[i] <= '9' {
		num = num*10 + int(id[i]-'0')
		i++
	}
	return num, id[i:]
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// RunAll executes every experiment in order, writing each report to w,
// separated by headers. It stops at the first contradiction.
func RunAll(ctx context.Context, w io.Writer, opt Options) error {
	for _, e := range All() {
		fmt.Fprintf(w, "==== %s — %s ====\n", e.ID, e.Title)
		if err := e.Run(ctx, w, opt); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
