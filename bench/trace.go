package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call into a layer, or the root of one op. Parent is
// the id of the span that caused it (-1 for a root); spans of one op share
// Op. Phase is the workload whose run recorded it, prefixed "probe:" for
// the tiny runs that measure layers the workload does not reach. Counts
// carry the work the call did, read at the same boundary (states built,
// walker steps, messages sent, bytes received).
type span struct {
	Name   string           `json:"name"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Op     int              `json:"op"`
	Phase  string           `json:"phase"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// rootOp names the span that wraps the layer calls of one op; trace
// coverage is measured against it.
const rootOp = "op"

// tracer records the spans of one client goroutine in memory. Span ids
// are indexes into spans until merge renumbers them. A nil tracer
// records nothing, so one request path serves traced and untraced ops.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // ids of the spans begun and not yet ended, innermost last
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: t.op, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// do records fn as one span and returns the span's id.
func (t *tracer) do(name string, fn func()) int {
	id := t.begin(name)
	fn()
	t.end(id)
	return id
}

// count adds n units of key to span id.
func (t *tracer) count(id int, key string, n int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if s.Counts == nil {
		s.Counts = make(map[string]int64)
	}
	s.Counts[key] += n
}

// merge concatenates the spans of several tracers, labelling them with
// phase and renumbering ids so that ids stay indexes into the result.
func merge(dst []span, phase string, ts ...*tracer) []span {
	for _, t := range ts {
		off := len(dst)
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			s.Phase = phase
			dst = append(dst, s)
		}
	}
	return dst
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval its children cover. Children may overlap (concurrent
// calls under one parent), so their intervals are merged before the
// covered length is taken. spans[i].ID must equal i.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach time.Duration
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			reach = max(reach, iv[1])
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// coverage is the share of op wall time that layer spans account for:
// the summed op durations minus the ops' own self time, over the summed
// op durations.
func coverage(spans []span, self []time.Duration) float64 {
	var wall, gap time.Duration
	for i, s := range spans {
		if s.Name == rootOp {
			wall += s.End - s.Start
			gap += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(gap)/float64(wall)
}

// writeSpans writes one span per line as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opStat is what one op spent in one span name: summed self time,
// summed duration and summed counts.
type opStat struct {
	self, dur time.Duration
	counts    map[string]int64
}

// spanIndex groups span statistics by name, then by op.
type spanIndex map[string]map[int]*opStat

func indexSpans(spans []span, self []time.Duration) spanIndex {
	idx := make(spanIndex)
	for i, s := range spans {
		byOp := idx[s.Name]
		if byOp == nil {
			byOp = make(map[int]*opStat)
			idx[s.Name] = byOp
		}
		st := byOp[s.Op]
		if st == nil {
			st = &opStat{counts: make(map[string]int64)}
			byOp[s.Op] = st
		}
		st.self += self[i]
		st.dur += s.End - s.Start
		for k, v := range s.Counts {
			st.counts[k] += v
		}
	}
	return idx
}

// perOp applies f to every op that recorded span name and returns the
// median of the results; ok is false when no op recorded it.
func (idx spanIndex) perOp(name string, f func(*opStat) float64) (float64, bool) {
	byOp := idx[name]
	if len(byOp) == 0 {
		return 0, false
	}
	vals := make([]float64, 0, len(byOp))
	for _, st := range byOp {
		vals = append(vals, f(st))
	}
	return median(vals), true
}

// layerMetric is one per-layer metric: computed from the spans of a
// traced run, or (scalar) reported directly by the workload's session.
// home is the workload whose ops exercise the layer; a traced run of any
// other workload that does not reach the layer takes the value from a
// small traced run of home.
type layerMetric struct {
	name, unit, home string
	fromSpans        func(spanIndex) (float64, bool)
}

// busy is the median per-op self time of span, in ms.
func busy(name, spanName, home string) layerMetric {
	return layerMetric{name, "ms", home, func(idx spanIndex) (float64, bool) {
		return idx.perOp(spanName, func(st *opStat) float64 { return ms(st.self) })
	}}
}

// rate is the median per-op count of key per second of span duration.
func rate(name, spanName, key, home string) layerMetric {
	return layerMetric{name, "1/s", home, func(idx spanIndex) (float64, bool) {
		return idx.perOp(spanName, func(st *opStat) float64 {
			return float64(st.counts[key]) / st.dur.Seconds()
		})
	}}
}

// total is the median per-op count of key.
func total(name, spanName, key, unit, home string) layerMetric {
	return layerMetric{name, unit, home, func(idx spanIndex) (float64, bool) {
		return idx.perOp(spanName, func(st *opStat) float64 { return float64(st.counts[key]) })
	}}
}

// scalar is reported by the session of home itself.
func scalar(name, unit, home string) layerMetric { return layerMetric{name, unit, home, nil} }

const (
	wReport = "report-full"
	wSweep  = "sweep-ball"
	wMC     = "mc-herman"
	wNetsim = "netsim-restab"
	wServe  = "serve-mixed"
)

// Trace-quality metrics every traced run measures on its own ops.
const (
	mCoverage = "trace.coverage_frac"
	mOverhead = "trace.overhead_frac"
)

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	busy("statespace.build.busy_ms", "statespace.build", wReport),
	rate("statespace.build.states_per_s", "statespace.build", "states", wReport),
	rate("statespace.build.states_per_s.w1", "statespace.build.w1", "states", wReport),
	total("statespace.build.edges", "statespace.build", "edges", "count", wReport),
	busy("statespace.reverse.busy_ms", "statespace.reverse", wReport),
	busy("statespace.scc.busy_ms", "statespace.scc", wReport),
	busy("checker.closure.busy_ms", "checker.closure", wReport),
	busy("checker.possible.busy_ms", "checker.possible", wReport),
	busy("checker.certain.busy_ms", "checker.certain", wReport),
	busy("checker.lasso.busy_ms", "checker.lasso", wReport),
	busy("checker.radius.busy_ms", "checker.radius", wReport),
	busy("markov.from_space.busy_ms", "markov.from_space", wReport),
	busy("markov.prob_one.busy_ms", "markov.prob_one", wReport),
	busy("markov.hitting.busy_ms", "markov.hitting", wReport),

	busy("statespace.frontier.busy_ms", "statespace.frontier", wSweep),
	total("statespace.frontier.states", "statespace.frontier", "states", "count", wSweep),
	busy("checker.faultball.busy_ms", "checker.faultball", wSweep),
	busy("checker.ball_seed.busy_ms", "checker.ball_seed", wSweep),
	busy("checker.ball_grow.busy_ms", "checker.ball_grow", wSweep),
	busy("checker.ball_seal.busy_ms", "checker.ball_seal", wSweep),
	busy("checker.ball_verdict.busy_ms", "checker.ball_verdict", wSweep),
	total("checker.ball.closure_states", "checker.ball_verdict", "closure_states", "count", wSweep),

	busy("mc.explore.busy_ms", "mc.explore", wMC),
	busy("mc.new.busy_ms", "mc.new", wMC),
	busy("mc.run.busy_ms", "mc.run", wMC),
	rate("mc.run.walker_steps_per_s", "mc.run", "walker_steps", wMC),
	rate("mc.run.walker_steps_per_s.w1", "mc.run.w1", "walker_steps", wMC),
	total("mc.run.walker_steps", "mc.run", "walker_steps", "count", wMC),

	busy("netsim.topology.busy_ms", "netsim.topology", wNetsim),
	busy("netsim.restab.busy_ms", "netsim.restab", wNetsim),
	rate("netsim.restab.proc_rounds_per_s", "netsim.restab", "proc_rounds", wNetsim),
	rate("netsim.restab.proc_rounds_per_s.w1", "netsim.restab.w1", "proc_rounds", wNetsim),
	total("netsim.restab.messages", "netsim.restab", "messages", "count", wNetsim),

	busy("spacecache.store.ms", "spacecache.store", wServe),
	busy("spacecache.load_mmap_first.ms", "spacecache.load_mmap_first", wServe),
	busy("spacecache.load_mmap.ms", "spacecache.load_mmap", wServe),
	busy("spacecache.load_decode.ms", "spacecache.load_decode", wServe),
	scalar("spacecache.hit_frac", "frac", wServe),
	busy("service.execute_cold.busy_ms", "service.execute_cold", wServe),
	busy("service.execute_warm.busy_ms", "service.execute_warm", wServe),
	scalar("service.lru_frac", "frac", wServe),
	scalar("service.dedupe_frac", "frac", wServe),
	scalar("service.run_frac", "frac", wServe),
	scalar("service.lru_answer.p50_ms", "ms", wServe),
	scalar("service.run_answer.p50_ms", "ms", wServe),
	busy("http.submit.p50_ms", "http.submit", wServe),
	busy("http.wait.p50_ms", "http.wait", wServe),
	busy("http.result.p50_ms", "http.result", wServe),
	total("http.result.bytes", "http.result", "bytes", "bytes", wServe),

	scalar(mCoverage, "frac", ""),
	scalar(mOverhead, "frac", ""),
}

// layerValues computes every span-derived metric present in spans and
// adds the scalars; the result maps metric name to value.
func layerValues(spans []span, scalars map[string]float64) map[string]float64 {
	idx := indexSpans(spans, selfTimes(spans))
	out := make(map[string]float64)
	for _, m := range layerMetrics {
		if m.fromSpans == nil {
			if v, ok := scalars[m.name]; ok {
				out[m.name] = v
			}
			continue
		}
		if v, ok := m.fromSpans(idx); ok {
			out[m.name] = v
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// missingHomes returns, in metric order, the home workloads of the
// per-layer metrics absent from vals.
func missingHomes(vals map[string]float64) []string {
	var homes []string
	seen := make(map[string]bool)
	for _, m := range layerMetrics {
		if _, ok := vals[m.name]; ok || m.home == "" || seen[m.home] {
			continue
		}
		seen[m.home] = true
		homes = append(homes, m.home)
	}
	return homes
}

// checkLayerValues reports the first per-layer metric still missing.
func checkLayerValues(vals map[string]float64) error {
	for _, m := range layerMetrics {
		if _, ok := vals[m.name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	return nil
}
