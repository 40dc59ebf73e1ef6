package service

// The one orchestrator: a pre-cancelled context reaches the exploration
// of report mode and the radius loop of sweep mode, and a direct call
// runs on the pool size its request asks for.

import (
	"context"
	"errors"
	"testing"

	"weakstab/internal/statespace"
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

// TestExecuteHonorsRequestWorkers pins the contract stabcheck's -workers
// relies on: a direct Execute explores on exactly Request.Workers
// workers, in report mode, on the fault-ball path and in mc mode. A
// Manager drops the field (TestManagerJobsIgnoreRequestWorkers).
func TestExecuteHonorsRequestWorkers(t *testing.T) {
	kf := 1
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"report", Request{Alg: "tokenring", N: 8, K: 3}},
		{"reachable-kfaults1", Request{Alg: "tokenring", N: 8, K: 3, Reachable: true, KFaults: &kf}},
		{"mc", Request{Alg: "tokenring", N: 8, K: 3, Mode: ModeMC, Trials: 100}},
	} {
		for _, w := range []int{1, 3} {
			pool := -1
			deps := Deps{Inspect: func(_ *Response, ts *statespace.Space) { pool = ts.PoolWorkers() }}
			req := tc.req
			req.Workers = w
			if _, err := Execute(t.Context(), req, deps); err != nil {
				t.Fatalf("%s at workers %d: %v", tc.name, w, err)
			}
			if pool != w {
				t.Errorf("%s at workers %d explored on %d workers", tc.name, w, pool)
			}
		}
	}
}
