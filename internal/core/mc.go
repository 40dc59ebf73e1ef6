package core

import (
	"context"
	"fmt"

	"weakstab/internal/markov"
	"weakstab/internal/mc"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// EstimateHittingTime estimates the stabilization-time distribution of
// the algorithm under the policy's randomized scheduler by Monte Carlo
// simulation on the explored space (internal/mc) — the estimator for the
// regime where the exact hitting-time solve no longer fits. The space is
// built (or, with Options.CacheDir, cache-loaded — warm runs sample the
// mapped CSR without decoding) exactly as for AnalyzeWith, so estimates
// and exact reports describe the same transition system.
func EstimateHittingTime(a protocol.Algorithm, pol scheduler.Policy, opt Options, mcOpt mc.Options) (*mc.Result, error) {
	return EstimateHittingTimeContext(context.Background(), a, pol, opt, mcOpt)
}

// EstimateHittingTimeContext is EstimateHittingTime with cooperative
// cancellation: chunk granularity during exploration, batch granularity
// during sampling.
func EstimateHittingTimeContext(ctx context.Context, a protocol.Algorithm, pol scheduler.Policy, opt Options, mcOpt mc.Options) (*mc.Result, error) {
	cache, err := opt.openCache()
	if err != nil {
		return nil, err
	}
	done := obs.Or(opt.Obs).Phase("explore")
	ts, _, err := cache.BuildSpaceContext(ctx, a, pol, opt.spaceOptions())
	done()
	if err != nil {
		return nil, fmt.Errorf("core: exploring %s: %w", a.Name(), err)
	}
	defer ts.Close()
	return EstimateSpaceContext(ctx, ts, withCoreDefaults(opt, mcOpt))
}

// EstimateSpaceContext runs the Monte Carlo estimation over an
// already-explored transition system, targeting its legitimate set. A
// zero-copy mapped system is pinned for the duration (mc.New/RunContext
// acquire it), so a concurrent Close cannot unmap the CSR mid-walk.
func EstimateSpaceContext(ctx context.Context, ts *statespace.Space, mcOpt mc.Options) (*mc.Result, error) {
	done := obs.Or(mcOpt.Obs).Phase("mc")
	defer done()
	e, err := mc.New(ts, markov.TargetFromSpace(ts))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", ts.Algorithm().Name(), err)
	}
	res, err := e.RunContext(ctx, mcOpt)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", ts.Algorithm().Name(), err)
	}
	return res, nil
}

// withCoreDefaults threads the analysis options' worker pool and
// observer into the estimator options when the caller left them unset.
func withCoreDefaults(opt Options, mcOpt mc.Options) mc.Options {
	if mcOpt.Workers == 0 {
		mcOpt.Workers = opt.Workers
	}
	if mcOpt.Obs == nil {
		mcOpt.Obs = opt.Obs
	}
	return mcOpt
}
