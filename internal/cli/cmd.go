package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// The parse step and exit every command shares. A command's run parses
// its flags with FlagSet and Parse, so a test can call it and see its
// errors, and main hands run's error to Exit.

// ErrParse is what every command's run returns on a flag error. The
// FlagSet has already printed the message and the usage, so Exit prints
// nothing more and exits 2, as the flag package's ExitOnError does.
var ErrParse = errors.New("flag parsing failed")

// FlagSet returns a command's flag set, which reports errors to Parse
// instead of exiting.
func FlagSet(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

// Parse parses args into fs. done reports that run must return err at
// once: nil after -h, which printed the usage, and ErrParse after a flag
// error.
func Parse(fs *flag.FlagSet, args []string) (done bool, err error) {
	switch err := fs.Parse(args); {
	case err == nil:
		return false, nil
	case errors.Is(err, flag.ErrHelp):
		return true, nil
	}
	return true, ErrParse
}

// Exit ends the command name whose run returned err: it returns on nil,
// exits 2 on ErrParse, and otherwise prints "name: err" to stderr and
// exits 1.
func Exit(name string, err error) {
	switch {
	case err == nil:
		return
	case errors.Is(err, ErrParse):
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}
