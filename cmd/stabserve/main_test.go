package main

import (
	"errors"
	"testing"

	"weakstab/internal/cli"
)

// TestFlagErrors checks the flag contract every command shares: an
// undefined flag is cli.ErrParse (already printed by the FlagSet, exit 2)
// and -h is not a failure. Neither starts the server.
func TestFlagErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); !errors.Is(err, cli.ErrParse) {
		t.Errorf("run(-bogus) = %v, want cli.ErrParse", err)
	}
	if err := run([]string{"-h"}); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
}
