// Profiling wiring for the long-running commands: the -cpuprofile and
// -memprofile flags, which Run registers when a command asks for them,
// and the start/stop pair Run puts around the body. A failing
// StartCPUProfile closes the profile file instead of leaking it.

package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags holds the shared profiling flag values.
type profileFlags struct {
	// CPU is the CPU-profile output path ("" = off).
	CPU string
	// Mem is the heap-profile output path ("" = off); the profile is
	// taken after the run, post-GC, so it shows live heap.
	Mem string
}

// register adds the shared profiling flags to fs.
func (f *profileFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile taken after the run to `file`")
}

// start begins CPU profiling when -cpuprofile was set and returns the
// stop function Run calls when the body returns: it stops and
// closes the CPU profile and writes the post-GC heap profile when
// -memprofile was set. With neither flag set, stop is a cheap no-op.
// On error nothing is left running and no file handle stays open.
func (f profileFlags) start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		cpu, err = os.Create(f.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	mem := f.Mem
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if mem != "" {
			errs = append(errs, writeHeapProfile(mem))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile snapshots the live heap (after a settling GC) to
// path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // settle allocations so the profile shows live heap
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("memprofile: %w", werr)
	}
	return nil
}
