// Run manifests: the machine-readable summary a CLI writes when a run
// finishes — per-phase wall/CPU timings, peak heap, derived rates, the
// full registry snapshot, and replay metadata (command, args, seed).
package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// PhaseTiming is one completed phase of a run.
type PhaseTiming struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// CPUMS is the process CPU time (user+system) consumed during the
	// phase, from rusage; 0 on platforms without it.
	CPUMS float64 `json:"cpu_ms,omitempty"`
}

type phaseStart struct {
	wall time.Time
	cpu  time.Duration
}

// Phase marks the start of a named run phase and returns its closer.
// The closer records the phase's wall and CPU span on the observer's
// timeline, takes a heap sample while the heap watch is on (see
// StartHeapWatch), and emits a "phase" event. Nil-safe: on a disabled observer
// both the call and the closer are no-ops. Phases may nest or repeat;
// repeated names accumulate as separate timeline entries.
func (o *Observer) Phase(name string) func() {
	if o == nil {
		return func() {}
	}
	start := phaseStart{wall: time.Now(), cpu: processCPUTime()}
	return func() {
		wall := time.Since(start.wall).Seconds() * 1e3
		var cpu float64
		if c := processCPUTime(); c > 0 && start.cpu > 0 {
			cpu = (c - start.cpu).Seconds() * 1e3
		}
		o.mu.Lock()
		o.phases = append(o.phases, PhaseTiming{Name: name, WallMS: wall, CPUMS: cpu})
		watching := o.heapStop != nil
		o.mu.Unlock()
		if watching {
			o.sampleHeap()
		}
		o.Emit("phase", PhaseEvent{Name: name, WallMS: wall, CPUMS: cpu})
	}
}

// Phases returns a copy of the completed phase timeline.
func (o *Observer) Phases() []PhaseTiming {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]PhaseTiming(nil), o.phases...)
}

// StartHeapWatch begins sampling runtime heap usage (HeapInuse) into the
// "mem.heap_inuse_peak" gauge: once at start, every interval (250ms when
// interval ≤ 0), whenever a Phase ends, and once more at StopHeapWatch.
// The phase-end samples catch what a phase leaves live, such as an
// explored space, even in a run shorter than one interval. Idempotent;
// StopHeapWatch (or Close) ends it. Nil-safe.
func (o *Observer) StartHeapWatch(interval time.Duration) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.heapStop != nil {
		o.mu.Unlock()
		return
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	o.heapStop, o.heapDone = stop, done
	o.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			o.sampleHeap()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
}

// sampleHeap raises the "mem.heap_inuse_peak" gauge to the current
// HeapInuse.
func (o *Observer) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.Gauge("mem.heap_inuse_peak").SetMax(int64(ms.HeapInuse))
}

// StopHeapWatch stops the heap sampler after one final sample. Nil-safe
// and idempotent.
func (o *Observer) StopHeapWatch() {
	if o == nil {
		return
	}
	o.mu.Lock()
	stop, done := o.heapStop, o.heapDone
	o.heapStop, o.heapDone = nil, nil
	o.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Manifest is the one-document summary of a finished run.
type Manifest struct {
	// Command and Args identify what ran; Seed (with SeedSet) makes
	// randomized runs replayable from the manifest alone.
	Command string   `json:"command"`
	Args    []string `json:"args,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	SeedSet bool     `json:"seed_set,omitempty"`

	Start  time.Time `json:"start"`
	WallMS float64   `json:"wall_ms"`
	CPUMS  float64   `json:"cpu_ms,omitempty"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Phases []PhaseTiming `json:"phases,omitempty"`

	// PeakHeapBytes is the high-water HeapInuse seen by the heap
	// watcher's samples: periodic, at every phase end and at stop (0 when
	// the watcher never ran).
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`

	// Metrics is the flat registry snapshot (counters, gauges,
	// histogram .count/.sum/.max).
	Metrics map[string]int64 `json:"metrics,omitempty"`

	// Rates are derived throughputs: states_per_sec when the run
	// explored states, proc_rounds_per_sec when it simulated rounds,
	// cache_hit_ratio when the space cache saw traffic.
	Rates map[string]float64 `json:"rates,omitempty"`

	// Extra carries command-specific fields (trial counts, verdict
	// summaries) the CLI attaches before writing.
	Extra map[string]any `json:"extra,omitempty"`

	// Error is the run's failure message, empty on success.
	Error string `json:"error,omitempty"`
}

// BuildManifest assembles the manifest for a finished run. wall is the
// run's total wall time; metrics and rates come from the observer's
// registry. Nil-safe: a disabled observer yields a manifest with
// environment fields only.
func (o *Observer) BuildManifest(command string, args []string) Manifest {
	m := Manifest{
		Command:   command,
		Args:      args,
		Start:     time.Now(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if o == nil {
		return m
	}
	m.Start = o.start
	m.WallMS = time.Since(o.start).Seconds() * 1e3
	if c := processCPUTime(); c > 0 {
		m.CPUMS = c.Seconds() * 1e3
	}
	m.Phases = o.Phases()
	m.PeakHeapBytes = o.reg.Gauge("mem.heap_inuse_peak").Value()
	m.Metrics = o.reg.Snapshot()
	m.Rates = deriveRates(m.Metrics, m.WallMS)
	return m
}

// deriveRates computes the standard throughput numbers from a registry
// snapshot: exploration speed, simulated process-rounds per second, and
// cache hit ratios.
func deriveRates(metrics map[string]int64, wallMS float64) map[string]float64 {
	rates := make(map[string]float64)
	secs := wallMS / 1e3
	if secs > 0 {
		if states := metrics["frontier.states"] + metrics["build.states"]; states > 0 {
			rates["states_per_sec"] = float64(states) / secs
		}
		if pr := metrics["netsim.proc_rounds"]; pr > 0 {
			rates["proc_rounds_per_sec"] = float64(pr) / secs
		}
	}
	hits, misses := metrics["cache.hits"], metrics["cache.misses"]
	if hits+misses > 0 {
		rates["cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if len(rates) == 0 {
		return nil
	}
	return rates
}

// WriteManifest marshals the manifest as indented JSON to w. Keys of the
// Metrics and Rates maps render sorted (encoding/json sorts map keys),
// so manifests diff cleanly.
func WriteManifest(w io.Writer, m Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
