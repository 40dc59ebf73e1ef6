// Observability wiring shared by every command: the -progress,
// -trace-out, -debug-addr and -manifest flags, and the run scope that
// turns them into an installed Observer. Run registers the flags,
// starts the scope after parsing and finishes it when the body returns;
// everything in between — engine instrumentation, progress rendering,
// the debug endpoint, manifest assembly — happens through the
// process-default observer, so the commands themselves stay free of
// observability plumbing. When no observability flag is set, the scope
// installs nothing and the hot paths keep their zero-overhead nil
// observer.

package cli

import (
	"flag"
	"fmt"
	"os"

	"weakstab/internal/obs"
)

// obsFlags holds the shared observability flag values.
type obsFlags struct {
	// Progress renders a live one-line progress display on stderr.
	Progress bool
	// TraceOut writes structured JSONL progress events to a file.
	TraceOut string
	// DebugAddr serves net/http/pprof and /metrics over HTTP for the
	// run's duration.
	DebugAddr string
	// Manifest writes the machine-readable run summary to a file when
	// the run finishes.
	Manifest string
}

// register adds the shared observability flags to fs.
func (f *obsFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Progress, "progress", false, "render a live progress line (rates, ETA) on stderr")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write structured JSONL progress events to `file`")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof and /metrics on `addr` (e.g. localhost:6060) while the run lasts")
	fs.StringVar(&f.Manifest, "manifest", "", "write a JSON run manifest (phase timings, peak heap, rates, full metrics) to `file`")
}

// enabled reports whether any observability flag was set.
func (f obsFlags) enabled() bool {
	return f.Progress || f.TraceOut != "" || f.DebugAddr != "" || f.Manifest != ""
}

// ObsRun is one command invocation's observability scope: the observer
// start installed as the process default, plus what finish needs to
// unwind it (the displaced default, the progress renderer to terminate,
// the debug server to shut down) and to write the manifest (command
// identity, effective seed, extra fields).
type ObsRun struct {
	flags   obsFlags
	command string
	args    []string

	o        *obs.Observer
	prev     *obs.Observer
	progress *obs.Progress
	shutdown func()

	seed    int64
	seedSet bool
	extra   map[string]any
}

// start begins the observability scope for one command run: it builds
// an Observer from the flags (event sink on -trace-out, progress hook
// on -progress, debug HTTP server on -debug-addr, heap watcher on
// -manifest) and installs it as the process default, which every engine
// package resolves through obs.Or. With no observability flag set it
// installs nothing — the returned run is inert and finish is a no-op —
// so the process default (nil, or the WEAKSTAB_TRACE observer) stays in
// place. command and args identify the run in its manifest.
func (f obsFlags) start(command string, args []string) (*ObsRun, error) {
	r := &ObsRun{flags: f, command: command, args: args}
	if !f.enabled() {
		return r, nil
	}
	o := obs.New()
	if f.TraceOut != "" {
		tf, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
		o.SetSink(obs.NewSink(tf)) // the sink owns tf; o.Close closes it
	}
	if f.Progress {
		r.progress = obs.NewProgress(os.Stderr)
		o.AddHook(r.progress.Handle)
	}
	if f.DebugAddr != "" {
		bound, shutdown, err := o.ServeDebug(f.DebugAddr)
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("debug-addr: %w", err)
		}
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/pprof/ and /metrics\n", bound)
		r.shutdown = shutdown
	}
	if f.Manifest != "" {
		o.StartHeapWatch(0)
	}
	r.o = o
	r.prev = obs.SetDefault(o)
	return r, nil
}

// Observer returns the run's observer; nil when no observability flag
// was set.
func (r *ObsRun) Observer() *obs.Observer { return r.o }

// SetSeed records the run's effective seed for the manifest, making the
// run replayable from the manifest alone.
func (r *ObsRun) SetSeed(seed int64) { r.seed, r.seedSet = seed, true }

// AddExtra attaches a command-specific field to the manifest's extra
// map.
func (r *ObsRun) AddExtra(key string, val any) {
	if r.extra == nil {
		r.extra = make(map[string]any)
	}
	r.extra[key] = val
}

// finish ends the scope: terminates the progress line, writes the
// manifest (recording runErr as the run's failure, if any), closes the
// event sink, shuts down the debug server and restores the previously
// installed default observer. It is a no-op on an inert run. The
// returned error covers the teardown itself — manifest or trace write
// failures — never runErr.
func (r *ObsRun) finish(runErr error) error {
	o := r.o
	if o == nil {
		return nil
	}
	if r.progress != nil {
		r.progress.Done()
	}
	o.StopHeapWatch() // final heap sample lands before the snapshot
	var err error
	if r.flags.Manifest != "" {
		m := o.BuildManifest(r.command, r.args)
		m.Seed, m.SeedSet = r.seed, r.seedSet
		m.Extra = r.extra
		if runErr != nil {
			m.Error = runErr.Error()
		}
		err = writeManifestFile(r.flags.Manifest, m)
	}
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	if r.shutdown != nil {
		r.shutdown()
	}
	obs.SetDefault(r.prev)
	return err
}

// writeManifestFile writes the manifest to path, creating or truncating
// it.
func writeManifestFile(path string, m obs.Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	werr := obs.WriteManifest(f, m)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("manifest: %w", werr)
	}
	return nil
}
