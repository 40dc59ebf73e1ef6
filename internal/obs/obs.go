// Package obs is the observability layer: a zero-overhead-when-off
// metrics registry (atomic counters, gauges, log₂ histograms), a
// structured JSONL event sink for long-job progress (frontier shells,
// solver blocks, sweep radii, cache traffic, netsim rounds), per-phase
// wall/CPU timings feeding a machine-readable run manifest, and a debug
// HTTP endpoint serving net/http/pprof plus the registry's OpenMetrics
// exposition at /metrics.
//
// The whole layer hangs off an *Observer, and nil is the off switch:
// every method on a nil Observer, and on the nil metric handles a nil
// Observer hands out, is a no-op. Instrumented hot paths therefore pay
// exactly one pointer check when observability is disabled — pinned to
// zero allocations by TestDisabledPathZeroAlloc — and analyses emit
// metrics and events only on side channels (registry, trace file,
// stderr), never into their result values, so enabling instrumentation
// cannot change an analysis verdict bit.
//
// Wiring: the CLIs build an Observer from the shared -progress /
// -trace-out / -debug-addr / -manifest flags (internal/cli) and install
// it as the package-level default; engine packages resolve their
// observer with Or(opt.Obs) — an explicit per-call Observer when the
// caller threaded one through its Options, the process default
// otherwise, nil when observability is off. Setting the environment
// variable WEAKSTAB_TRACE to a path installs a default observer tracing
// there before main runs, which is how the CI overhead guard drives the
// instrumented path through unmodified benchmarks.
package obs

import (
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Observer bundles a metrics registry, an optional event sink, optional
// event hooks (the progress renderer), and the phase timeline of the
// current run. A nil Observer is valid everywhere and means
// "observability off".
type Observer struct {
	reg   *Registry
	sink  *Sink
	hooks []func(name string, payload any)

	start time.Time

	mu     sync.Mutex
	phases []PhaseTiming

	heapStop chan struct{}
	heapDone chan struct{}
}

// New returns an enabled Observer with a fresh registry and no sink.
func New() *Observer {
	return &Observer{reg: NewRegistry(), start: time.Now()}
}

// NewWithRegistry returns an enabled Observer recording metrics into reg
// (nil gets a fresh registry). Sharing one registry across several
// observers is how per-job observers keep their own event hooks and sink
// while all their counters aggregate into one scrape target: registry
// writes are atomic, so concurrent jobs never lock each other.
func NewWithRegistry(reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{reg: reg, start: time.Now()}
}

// def is the process-wide default observer, nil when observability is
// off. A single atomic pointer keeps the disabled read path at one load.
var def atomic.Pointer[Observer]

// Default returns the process-wide default observer (nil = off).
func Default() *Observer { return def.Load() }

// SetDefault installs o as the process-wide default and returns the
// previous one, so scoped installations (a CLI run, a test) can restore
// what they displaced.
func SetDefault(o *Observer) (prev *Observer) { return def.Swap(o) }

// Or resolves the observer an engine package should use: the explicitly
// threaded one when non-nil, the process default otherwise. Both may be
// nil, which disables instrumentation.
func Or(o *Observer) *Observer {
	if o != nil {
		return o
	}
	return Default()
}

// On reports whether the observer is enabled. Emission sites guard event
// construction with it so a disabled run builds no payloads at all.
func (o *Observer) On() bool { return o != nil }

// Registry returns the observer's metrics registry (nil when disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Counter returns the named counter handle; nil (a no-op handle) when
// the observer is disabled.
func (o *Observer) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge returns the named gauge handle; nil when disabled.
func (o *Observer) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

// Histogram returns the named histogram handle; nil when disabled.
func (o *Observer) Histogram(name string) *Histogram { return o.Registry().Histogram(name) }

// SetSink directs structured events to s (nil detaches). Configure
// before instrumented code runs; the field is not synchronized against
// concurrent emitters.
func (o *Observer) SetSink(s *Sink) {
	if o != nil {
		o.sink = s
	}
}

// AddHook subscribes fn to every emitted event (the progress renderer's
// attachment point). Configure before instrumented code runs.
func (o *Observer) AddHook(fn func(name string, payload any)) {
	if o != nil && fn != nil {
		o.hooks = append(o.hooks, fn)
	}
}

// Emit sends one structured event to the sink and hooks. Emission sites
// in engine code guard with On() so the payload is never even built when
// observability is off; Emit itself also tolerates a nil receiver.
func (o *Observer) Emit(name string, payload any) {
	if o == nil {
		return
	}
	if o.sink != nil {
		o.sink.Emit(name, payload)
	}
	for _, h := range o.hooks {
		h(name, payload)
	}
}

// Close flushes and closes the sink (if any) and stops the heap watcher.
// The registry stays readable for manifest assembly.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	o.StopHeapWatch()
	if o.sink != nil {
		return o.sink.Close()
	}
	return nil
}

// init installs a default observer from the environment:
// WEAKSTAB_TRACE=<path> traces JSONL events to path ("/dev/null" works
// and is how CI measures instrumented-path overhead through unmodified
// benchmarks). The file is held open for the process lifetime.
func init() {
	path := os.Getenv("WEAKSTAB_TRACE")
	if path == "" {
		return
	}
	o := New()
	var w io.Writer
	if f, err := os.Create(path); err == nil {
		w = f
	} else {
		w = io.Discard
	}
	o.SetSink(NewSink(w))
	SetDefault(o)
}
