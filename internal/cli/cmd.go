package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// The run scope and exit every command shares. A command's run builds
// its FlagSet and hands it to Run with the body of the run, so a test
// can call run and see its errors, and main hands run's error to Exit.

// ErrParse is what Run returns on a flag error. The FlagSet has already
// printed the message and the usage, so Exit prints nothing more and
// exits 2, as the flag package's ExitOnError does.
var ErrParse = errors.New("flag parsing failed")

// ErrUsage marks a run whose flags parsed but do not name a run, such
// as a missing or unknown instance. Exit prints it and exits 2.
var ErrUsage = errors.New("usage")

// FlagSet returns a command's flag set, which reports errors to Run
// instead of exiting.
func FlagSet(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

// Run is one command run. It registers the observability flags on fs,
// and the profiling flags when profile is set, parses args, and returns
// nil after -h (which printed the usage) and ErrParse after a flag
// error. Otherwise it starts the observability scope, named fs.Name()
// in the manifest, and the profiles, runs body, and stops the profiles
// and finishes the scope on every path, so a failing run still writes
// its manifest with the error. It returns body's error, or the first
// teardown error when body succeeded.
func Run(fs *flag.FlagSet, args []string, profile bool, body func(*ObsRun) error) error {
	var of obsFlags
	of.register(fs)
	var pf profileFlags
	if profile {
		pf.register(fs)
	}
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return nil
	case err != nil:
		return ErrParse
	}
	orun, err := of.start(fs.Name(), args)
	if err != nil {
		return err
	}
	stopProf, err := pf.start()
	if err != nil {
		orun.finish(err)
		return err
	}
	err = body(orun)
	if serr := stopProf(); err == nil {
		err = serr
	}
	if ferr := orun.finish(err); err == nil {
		err = ferr
	}
	return err
}

// Exit ends the command name whose run returned err: it returns on nil,
// exits 2 on ErrParse, and otherwise prints "name: err" to stderr and
// exits 2 on ErrUsage and 1 on anything else.
func Exit(name string, err error) {
	switch {
	case err == nil:
		return
	case errors.Is(err, ErrParse):
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if errors.Is(err, ErrUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}
