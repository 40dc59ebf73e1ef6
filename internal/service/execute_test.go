package service

// Cancellation of the one orchestrator: a pre-cancelled context reaches
// the exploration of report mode and the radius loop of sweep mode.

import (
	"context"
	"errors"
	"testing"
)

func preCanceled(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	return ctx
}

func TestExecuteReportPreCanceled(t *testing.T) {
	_, err := Execute(preCanceled(t), Request{Alg: "tokenring", N: 5}, Deps{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled report Execute: err = %v, want a wrapped context.Canceled", err)
	}
}

func TestExecuteSweepPreCanceled(t *testing.T) {
	kmax := 2
	_, err := Execute(preCanceled(t), Request{Alg: "tokenring", N: 5, KMax: &kmax}, Deps{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled sweep Execute: err = %v, want a wrapped context.Canceled", err)
	}
}
