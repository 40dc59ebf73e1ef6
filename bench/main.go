// Command bench is the repository's benchmark: five fixed workloads, each
// a closed loop driven from this one process, that call the layers'
// public functions from outside and check every answer.
//
//	bash bench/run.sh --workload report-full --seed 1 --seconds 12 --trace 0
//
// An untraced run (-trace 0) measures the end-to-end metrics over a fixed
// number of ops, sized to take about -seconds. A traced run (-trace 1) replays a fixed number of ops twice,
// untraced and then decomposed into one span per layer call, checks that
// both give the same answers, writes the spans to -spans and prints the
// per-layer metrics. Either way the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// -repeat N runs the workload N times in child processes with seeds
// seed..seed+N-1 and prints each metric's median, quartiles and relative
// spread, the numbers the bounds in BENCHMARK.json are set from.
// -write-goldens DIR regenerates the answers every run is checked against
// under DIR/testdata.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart stands in for process start: package initialization runs
// before main, microseconds after exec.
var processStart = time.Now()

// setupRuns is how many times an untraced run sets its workload up; the
// reported set-up time is the median.
const setupRuns = 3

// workdir holds a run's scratch files: cache directories, removed when
// the run is done with them.
const workdir = ".bench_build/work"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	spans        string
	json         bool
	repeat       int
	writeGoldens string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 12, "length of an untraced run: it runs the workload's nominal ops per second times this many ops")
	fs.IntVar(&o.trace, "trace", 0, "1 for a traced run reporting the per-layer metrics, 0 for the end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default .bench_build/spans/WORKLOAD-seedSEED.jsonl)")
	fs.BoolVar(&o.json, "json", false, "print the report as one JSON document instead of text")
	fs.IntVar(&o.repeat, "repeat", 0, "calibrate: run N times with consecutive seeds and print each metric's spread")
	fs.StringVar(&o.writeGoldens, "write-goldens", "", "regenerate the goldens under `DIR`/testdata and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1")
	}
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if o.writeGoldens != "" {
		if err := writeGoldens(o.writeGoldens); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.repeat > 0 {
		if err := calibrate(o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	e := env{seed: o.seed, sz: fullSizes, workdir: workdir}
	var out outcome
	if o.trace == 1 {
		out, err = traced(w, e, o.spans)
	} else {
		out, err = measured(w, e, w.ops(o.seconds))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printReport(stdout, o, out); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// namedMetric is one printed metric. Extra metrics appear in the report
// but not in the result line.
type namedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
	extra   bool
}

// outcome is one run, ready to print.
type outcome struct {
	ops, attempted, failed int
	errs                   []string
	metrics                []namedMetric
}

func (o *outcome) add(lr loopResult) {
	o.attempted += len(lr.samples)
	o.failed += lr.failed()
	for i, s := range lr.samples {
		if s.err != nil && len(o.errs) < 5 {
			o.errs = append(o.errs, fmt.Sprintf("op %d: %v", i, s.err))
		}
	}
}

// measured sets the workload up setupRuns times, then runs n ops of its
// closed loop and derives the end-to-end metrics.
func measured(w workload, e env, n int) (outcome, error) {
	var (
		out    outcome
		s      session
		setups []float64
	)
	for k := 0; k < setupRuns; k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return out, err
			}
		}
		t := time.Now()
		if k == 0 {
			t = processStart
		}
		var err error
		if s, err = w.open(e); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	lr := runLoop(w, s, time.Now(), measure, nil, n)
	if err := s.close(); err != nil {
		return out, err
	}
	out.add(lr)
	out.ops = n
	lats := lr.latenciesMS()
	out.metrics = []namedMetric{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups), Note: "median of set-ups"},
		{Name: "ops_per_s", Value: float64(n) / lr.wall.Seconds(), Unit: "1/s", Samples: n},
		{Name: "latency_p50_ms", Value: median(lats), Unit: "ms", Samples: n},
		{Name: "cpu_ms_per_op", Value: ms(lr.cpu) / float64(n), Unit: "ms", Samples: n},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MiB"},
	}
	if p99, ok := tailPercentile(lats, 0.99); ok {
		out.metrics = append(out.metrics, namedMetric{Name: "latency_p99_ms", Value: p99, Unit: "ms", Samples: n, extra: true})
	}
	out.metrics = append(out.metrics, namedMetric{Name: "failed_frac", Value: float64(out.failed) / float64(n), Unit: "frac", Samples: n, extra: true})
	return out, nil
}

// tracedRun is one workload's fixed op sequence run untraced (ref) and
// then decomposed (trc) on a fresh session, plus the spans and scalars
// of the traced session's own probes.
type tracedRun struct {
	ref, trc loopResult
	spans    []span
	scalars  map[string]float64
}

func traceWorkload(w workload, e env, t0 time.Time, phase string) (tracedRun, error) {
	var tr tracedRun
	k := e.sz.traceOps[w.name]
	s, err := w.open(e)
	if err != nil {
		return tr, fmt.Errorf("set-up: %w", err)
	}
	tr.ref = runLoop(w, s, t0, reference, nil, k)
	if err := s.close(); err != nil {
		return tr, err
	}
	ref := make([]any, len(tr.ref.samples))
	for i, smp := range tr.ref.samples {
		ref[i] = smp.ans
	}
	if s, err = w.open(e); err != nil {
		return tr, fmt.Errorf("set-up: %w", err)
	}
	tr.trc = runLoop(w, s, t0, decompose, ref, k)
	probes := newTracer(t0)
	tr.scalars, err = s.finish(probes)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	tr.spans = merge(nil, phase, append(tr.trc.tracers, probes)...)
	return tr, err
}

// traced measures the per-layer metrics of w. Metrics of layers w's ops
// never reach come from a traced run of the layer's home workload at the
// tiny sizes.
func traced(w workload, e env, spansPath string) (outcome, error) {
	var out outcome
	t0 := time.Now()
	run, err := traceWorkload(w, e, t0, w.name)
	if err != nil {
		return out, err
	}
	out.add(run.ref)
	out.add(run.trc)
	out.ops = len(run.trc.samples)
	spans := run.spans
	vals := layerValues(spans, run.scalars)
	vals[mCoverage] = coverage(spans, selfTimes(spans))
	// Traced throughput counts only the op spans: the one-worker reruns
	// and probes after each op are not part of it.
	tracedWall := run.trc.wall
	if w.clients == 1 {
		tracedWall = 0
		for _, s := range spans {
			if s.Name == rootOp {
				tracedWall += s.End - s.Start
			}
		}
	}
	vals[mOverhead] = 1 - run.ref.wall.Seconds()/tracedWall.Seconds()

	probeEnv := env{seed: e.seed, sz: tinySizes, workdir: e.workdir}
	notes := make(map[string]string)
	for _, home := range missingHomes(vals) {
		hw, err := workloadByName(home)
		if err != nil {
			return out, err
		}
		phase := "probe:" + home
		pr, err := traceWorkload(hw, probeEnv, t0, phase)
		if err != nil {
			return out, fmt.Errorf("probe %s: %w", home, err)
		}
		out.add(pr.ref)
		out.add(pr.trc)
		spans = merge(spans, phase, &tracer{spans: pr.spans})
		pv := layerValues(pr.spans, pr.scalars)
		for _, m := range layerMetrics {
			if _, have := vals[m.name]; have || m.home != home {
				continue
			}
			if v, ok := pv[m.name]; ok {
				vals[m.name] = v
				notes[m.name] = "tiny " + home + " probe"
			}
		}
	}
	if err := writeSpans(spansPath, spans); err != nil {
		return out, err
	}
	if err := checkLayerValues(vals); err != nil {
		out.errs = append(out.errs, err.Error())
	}
	for _, m := range layerMetrics {
		if v, ok := vals[m.name]; ok {
			out.metrics = append(out.metrics, namedMetric{Name: m.name, Value: v, Unit: m.unit, Note: notes[m.name]})
		}
	}
	return out, nil
}

// header identifies a run: the machine, the toolchain, the code and the
// inputs.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Ops        int    `json:"ops"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Git        string `json:"git"`
}

func runHeader(o options, ops int) header {
	return header{
		Workload:   o.workload,
		Seed:       o.seed,
		Traced:     o.trace == 1,
		Ops:        ops,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Git:        gitDescribe(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitDescribe names the commit under test, or "unknown" outside a git
// checkout.
func gitDescribe() string {
	b, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// metricValue is a metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printReport(w io.Writer, o options, out outcome) error {
	res := result{
		Correct:   out.failed == 0 && len(out.errs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, m := range out.metrics {
		if !m.extra {
			res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
		}
	}
	h := runHeader(o, out.ops)
	if o.json {
		b, err := json.MarshalIndent(struct {
			Header  header        `json:"header"`
			Metrics []namedMetric `json:"metrics"`
			Errors  []string      `json:"errors,omitempty"`
		}{h, out.metrics, out.errs}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	} else {
		fmt.Fprintf(w, "# workload=%s seed=%d traced=%t ops=%d\n", h.Workload, h.Seed, h.Traced, h.Ops)
		fmt.Fprintf(w, "# cpu=%q nproc=%d gomaxprocs=%d go=%s git=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Git)
		for _, m := range out.metrics {
			line := fmt.Sprintf("%-36s %14.4f %-6s", m.Name, m.Value, m.Unit)
			if m.Samples > 0 {
				line += fmt.Sprintf(" n=%d", m.Samples)
			}
			if m.Note != "" {
				line += " (" + m.Note + ")"
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
		for _, e := range out.errs {
			fmt.Fprintln(w, "# error:", e)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// calibrate runs the workload o.repeat times in child processes with
// consecutive seeds and prints every metric's median, quartiles and
// relative spread (interquartile range over median).
func calibrate(o options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := make(map[string][]float64)
	units := make(map[string]string)
	var names []string
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		args := []string{"-workload", o.workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace)}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(buf.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run was not correct:\n%s", seed, buf.String())
		}
		var got []string
		for name, m := range res.Metrics {
			if _, ok := vals[name]; !ok {
				names = append(names, name)
			}
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
			got = append(got, name)
		}
		fmt.Fprintf(stderr, "seed %d:", seed)
		for _, name := range sortedMetricNames(got) {
			fmt.Fprintf(stderr, " %s=%.4g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(stderr)
	}
	fmt.Fprintf(stdout, "# %s: %d runs, seeds %d..%d\n", o.workload, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
	fmt.Fprintf(stdout, "%-36s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, name := range sortedMetricNames(names) {
		v := vals[name]
		med := median(v)
		q1, q3 := med, med
		if len(v) >= 2 {
			q1, q3 = quartiles(v)
		}
		fmt.Fprintf(stdout, "%-36s %14.4f %14.4f %14.4f %7.2f%% %s\n", name, med, q1, q3, 100*(q3-q1)/med, units[name])
	}
	return nil
}

// sortedMetricNames orders names as the benchmark defines them.
func sortedMetricNames(names []string) []string {
	order := []string{"setup_s", "ops_per_s", "latency_p50_ms", "cpu_ms_per_op", "peak_rss_mb"}
	for _, m := range layerMetrics {
		order = append(order, m.name)
	}
	have := make(map[string]bool)
	for _, n := range names {
		have[n] = true
	}
	var out []string
	for _, n := range order {
		if have[n] {
			out = append(out, n)
		}
	}
	return out
}

// lastResult parses the result line of a run's standard output.
func lastResult(stdout []byte) (result, error) {
	var res result
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return res, nil
}
