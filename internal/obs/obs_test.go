package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files with the observed output")

// TestDisabledPathZeroAlloc pins the whole disabled instrumentation
// surface — nil handles, nil-observer emits, phases — to zero
// allocations. This is the tentpole's contract: engine hot paths guard
// payload construction with On(), so a disabled run must not allocate
// per event.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var o *Observer // the off switch
	c := o.Counter("x")
	g := o.Gauge("x")
	h := o.Histogram("x")
	cases := map[string]func(){
		"counter.add":  func() { c.Add(1) },
		"gauge.set":    func() { g.Set(42) },
		"gauge.setmax": func() { g.SetMax(42) },
		"hist.observe": func() { h.Observe(42) },
		"observer.on":  func() { _ = o.On() },
		"guarded-emit": func() {
			if o.On() {
				o.Emit("ev", FrontierShell{Shell: 1})
			}
		},
		"phase":          func() { o.Phase("p")() },
		"handle-lookups": func() { _ = Or(nil).Counter("x") },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs on the disabled path, want 0", name, allocs)
		}
	}
}

// TestRegistryConcurrent exercises concurrent get-or-create lookups and
// metric writes; run under -race this is the registry race test.
func TestRegistryConcurrent(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := o.Counter("shared.counter")
			g := o.Gauge("shared.gauge")
			h := o.Histogram("shared.hist")
			for i := 0; i < 1000; i++ {
				c.Add(1)
				g.SetMax(int64(w*1000 + i))
				h.Observe(int64(i))
				if i%100 == 0 {
					// Concurrent lookups of both existing and
					// per-goroutine names.
					o.Counter("shared.counter").Add(1)
					o.Counter(fmt.Sprintf("worker.%d", w)).Add(1)
					o.Registry().Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := o.Registry().Snapshot()
	if got := snap["shared.counter"]; got != 8*1000+8*10 {
		t.Errorf("shared.counter = %d, want %d", got, 8*1000+8*10)
	}
	if got := snap["shared.gauge"]; got != 7999 {
		t.Errorf("shared.gauge (max) = %d, want 7999", got)
	}
	if got := snap["shared.hist.count"]; got != 8000 {
		t.Errorf("shared.hist.count = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
	if s.Max != 1024 {
		t.Errorf("max = %d, want 1024", s.Max)
	}
	// bits.Len64: 0→bucket 0 (two zeros: 0 and clamped -5), 1→1, {2,3}→2,
	// {4,7}→3, 8→4, 1023→10, 1024→11.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}
	for b, n := range want {
		if s.Buckets[b] != n {
			t.Errorf("bucket %d = %d, want %d", b, s.Buckets[b], n)
		}
	}
}

// TestSinkGolden locks the JSONL envelope and every payload schema
// against testdata/events.golden with a fixed clock.
func TestSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	tick := time.Unix(1700000000, 0)
	s.SetClock(func() time.Time { return tick })
	advance := func(d time.Duration) { tick = tick.Add(d) }

	advance(1500 * time.Microsecond)
	s.Emit("frontier.shell", FrontierShell{Shell: 0, Expanded: 1, New: 12, States: 13, Edges: 36, DedupRate: 0.25})
	advance(2 * time.Millisecond)
	s.Emit("build.progress", BuildProgress{Done: 1 << 20, Total: 1 << 21, Edges: 5 << 20})
	advance(time.Millisecond)
	s.Emit("solver.block", SolverBlock{Size: 4096, Kind: "gs", Iters: 17, Residual: 3.2e-13})
	advance(time.Millisecond)
	s.Emit("sweep.radius", SweepRadius{K: 2, Ball: 133, Closure: 11, Possible: true, Certain: false, CacheHit: true})
	advance(time.Millisecond)
	s.Emit("cache.hit", CacheEvent{Kind: "space", Key: "tokenring-n11-k3", Mode: "mmap", Bytes: 1 << 16})
	advance(time.Millisecond)
	s.Emit("netsim.round", NetsimRound{Trial: 3, Round: 64, Sent: 12800, Delivered: 12544})
	advance(time.Millisecond)
	s.Emit("netsim.trial", NetsimTrial{Trial: 3, Of: 100, Rounds: 71, Converged: true, Seed: 42})
	advance(time.Millisecond)
	s.Emit("phase", PhaseEvent{Name: "build", WallMS: 8.5, CPUMS: 31.25})
	if err := s.Close(); err != nil {
		t.Fatalf("sink close: %v", err)
	}

	golden := filepath.Join("testdata", "events.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("event stream mismatch:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Every line must also be valid standalone JSON with the envelope.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if _, ok := m["ev"]; !ok {
			t.Errorf("line %d missing ev field", i)
		}
		if _, ok := m["t_ms"]; !ok {
			t.Errorf("line %d missing t_ms field", i)
		}
	}
}

func TestObserverEmitReachesSinkAndHooks(t *testing.T) {
	var buf bytes.Buffer
	o := New()
	o.SetSink(NewSink(&buf))
	var hooked []string
	o.AddHook(func(name string, _ any) { hooked = append(hooked, name) })
	o.Emit("sweep.radius", SweepRadius{K: 1})
	o.Emit("phase", PhaseEvent{Name: "x"})
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("sink got %d lines, want 2", got)
	}
	if len(hooked) != 2 || hooked[0] != "sweep.radius" {
		t.Errorf("hooks saw %v", hooked)
	}
}

func TestDefaultSwapRestores(t *testing.T) {
	orig := Default()
	o := New()
	prev := SetDefault(o)
	if Default() != o {
		t.Fatal("SetDefault did not install")
	}
	if Or(nil) != o {
		t.Error("Or(nil) should resolve to the default")
	}
	explicit := New()
	if Or(explicit) != explicit {
		t.Error("Or should prefer the explicit observer")
	}
	SetDefault(prev)
	if Default() != orig {
		t.Error("restore failed")
	}
}

func TestPhaseTimeline(t *testing.T) {
	o := New()
	done := o.Phase("build")
	time.Sleep(5 * time.Millisecond)
	done()
	o.Phase("checker")()
	ph := o.Phases()
	if len(ph) != 2 || ph[0].Name != "build" || ph[1].Name != "checker" {
		t.Fatalf("phases = %+v", ph)
	}
	if ph[0].WallMS < 4 {
		t.Errorf("build wall = %vms, want ≥ 4ms", ph[0].WallMS)
	}
}

func TestManifest(t *testing.T) {
	o := New()
	o.Counter("frontier.states").Add(5000)
	o.Counter("cache.hits").Add(3)
	o.Counter("cache.misses").Add(1)
	o.StartHeapWatch(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	o.StopHeapWatch()

	m := o.BuildManifest("stabcheck", []string{"-alg", "tokenring"})
	m.Seed, m.SeedSet = 42, true
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if back.Command != "stabcheck" || back.Seed != 42 || !back.SeedSet {
		t.Errorf("roundtrip lost identity fields: %+v", back)
	}
	if back.Metrics["frontier.states"] != 5000 {
		t.Errorf("metrics missing: %v", back.Metrics)
	}
	if r := back.Rates["cache_hit_ratio"]; r != 0.75 {
		t.Errorf("cache_hit_ratio = %v, want 0.75", r)
	}
	if back.Rates["states_per_sec"] <= 0 {
		t.Errorf("states_per_sec = %v, want > 0", back.Rates["states_per_sec"])
	}
	if back.PeakHeapBytes <= 0 {
		t.Errorf("peak heap = %d, want > 0 after watcher ran", back.PeakHeapBytes)
	}
	if back.GoVersion == "" || back.NumCPU <= 0 {
		t.Errorf("environment fields missing: %+v", back)
	}
}

// TestServeDebug scrapes one pprof profile off the debug server (its
// /metrics route is pinned by TestServeDebugMetrics).
func TestServeDebug(t *testing.T) {
	addr, shutdown, err := New().ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + addr + "/debug/pprof/heap?debug=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heap profile: status %d", resp.StatusCode)
	}
	if prof, err := io.ReadAll(resp.Body); err != nil || len(prof) == 0 {
		t.Errorf("empty heap profile (err %v)", err)
	}
}

func TestProgressRendering(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	tick := time.Unix(0, 0)
	p.now = func() time.Time { tick = tick.Add(time.Second); return tick }
	p.Handle("frontier.shell", FrontierShell{Shell: 3, Expanded: 100, New: 40, States: 500, Edges: 1500, DedupRate: 0.6})
	p.Handle("netsim.trial", NetsimTrial{Trial: 0, Of: 10, Rounds: 55, Converged: true})
	p.Done()
	out := buf.String()
	if !strings.Contains(out, "shell 3") || !strings.Contains(out, "dedup 60%") {
		t.Errorf("missing shell line: %q", out)
	}
	if !strings.Contains(out, "trial 1/10") || !strings.Contains(out, "ETA") {
		t.Errorf("missing trial line: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Done did not terminate the line: %q", out)
	}
}

func TestSinkErrorLatches(t *testing.T) {
	s := NewSink(failWriter{})
	s.Emit("x", PhaseEvent{Name: "a"})
	s.Emit("x", PhaseEvent{Name: "b"}) // must not panic or write
	if err := s.Close(); err == nil {
		t.Error("expected latched write error from Close")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

// TestHeapWatchSamplesPhaseEnd pins the phase-end heap sample: a phase
// that holds 32 MiB when it ends is seen by the watch even when the run
// is far shorter than one sampling interval.
func TestHeapWatchSamplesPhaseEnd(t *testing.T) {
	o := New()
	o.StartHeapWatch(time.Hour)
	// Wait for the start sample, so only a phase-end sample can see the
	// allocation below.
	for o.Gauge("mem.heap_inuse_peak").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	done := o.Phase("hold")
	held := make([]byte, 32<<20)
	done()
	runtime.KeepAlive(held)
	runtime.GC()
	o.StopHeapWatch()
	if got := o.BuildManifest("test", nil).PeakHeapBytes; got < 32<<20 {
		t.Fatalf("PeakHeapBytes = %d, want ≥ %d: the phase end was not sampled", got, 32<<20)
	}
}
