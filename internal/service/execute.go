// Execute: the one job-execution path. stabcheck calls it directly and
// stabserve through a Manager, so the exploration order, cache traffic
// and observability stream of a given request are identical no matter
// which surface submitted it.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"weakstab/internal/checker"
	"weakstab/internal/core"
	"weakstab/internal/markov"
	"weakstab/internal/mc"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// Deps are the shared dependencies a job executes against.
type Deps struct {
	// Cache is the disk space cache (nil disables caching; spacecache's
	// nil receiver is a pass-through).
	Cache *spacecache.Cache
	// Obs receives the job's metrics and progress events (nil falls back
	// to the process default observer).
	Obs *obs.Observer
	// Build constructs the algorithm instance and policy for a request;
	// nil uses the cli-backed default. The injection point tests use to
	// wrap algorithms with call counters.
	Build func(Request) (protocol.Algorithm, scheduler.Policy, error)
	// Inspect, when non-nil, runs at the end of a report-mode job with
	// the response assembled and the explored transition system still
	// open — the attachment point for witness and lasso extraction
	// (stabcheck's -witness/-lasso stay on the shared path through it).
	Inspect func(resp *Response, ts *statespace.Space)
}

// build resolves the instance builder.
func (d Deps) build() func(Request) (protocol.Algorithm, scheduler.Policy, error) {
	if d.Build != nil {
		return d.Build
	}
	return buildInstance
}

// Execute runs one job: normalize and validate the request, explore
// (through the disk cache), analyze, and assemble the result document.
// ctx cancellation propagates cooperatively into every stage —
// exploration stops at its next chunk or frontier-shell boundary, the
// sweep at its next radius, the solver at its next block — and a
// cancelled job stores nothing in the cache.
//
// On a hierarchy-check failure (a library bug, not a property of the
// algorithm) Execute returns both the assembled response and the error,
// so diagnostic surfaces can still render the offending report.
func Execute(ctx context.Context, req Request, deps Deps) (*Response, error) {
	id := req.identity()
	if err := id.validate(); err != nil {
		return nil, err
	}
	a, pol, err := deps.build()(id)
	if err != nil {
		return nil, err
	}
	req = req.normalize()
	opt := statespace.Options{MaxStates: req.MaxStates, Workers: req.Workers, Obs: deps.Obs}
	switch id.Mode {
	case ModeSweep:
		return executeSweep(ctx, id, a, pol, opt, deps)
	case ModeMC:
		return executeMC(ctx, id, a, pol, opt, deps)
	}
	return executeReport(ctx, id, a, pol, opt, deps)
}

// exploreSystem runs the request's exploration — the full index range,
// the fault-ball closure (Reachable without explicit seeds), or the
// forward closure of explicit seed configurations — through the disk
// cache, under an "explore" phase timing. The ball triple is non-nil
// only on the ball-closure path.
func exploreSystem(ctx context.Context, id Request, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options, deps Deps) (ts, ballSS *statespace.Space, ballGlobals []int64, ballDist []int, err error) {
	exploreDone := obs.Or(deps.Obs).Phase("explore")
	defer exploreDone()
	switch {
	case id.Reachable && id.From == "":
		k := 0
		if id.KFaults != nil && *id.KFaults > 0 {
			k = *id.KFaults
		}
		ballSS, ballGlobals, ballDist, err = checker.BallClosureContext(ctx, deps.Cache, a, pol, k, opt)
		if err == nil && ballSS == nil {
			err = errors.New("the legitimate set is empty; give explicit seeds with -from")
		}
		ts = ballSS
	case id.Reachable:
		var cfgs []protocol.Configuration
		if cfgs, err = ParseSeeds(id.From, a.Graph().N()); err == nil {
			ts, _, err = deps.Cache.BuildSubSpaceFromConfigsContext(ctx, a, pol, cfgs, opt)
		}
	default:
		ts, _, err = deps.Cache.BuildSpaceContext(ctx, a, pol, opt)
	}
	return ts, ballSS, ballGlobals, ballDist, err
}

// executeReport is the classification mode: explore once (full range,
// the fault-ball closure, or the forward closure of explicit seeds),
// analyze the explored system, then — when a fault radius was requested
// and the analyzed system is not already the ball closure — run the
// ball pipeline once more for the verdicts alone.
func executeReport(ctx context.Context, id Request, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options, deps Deps) (*Response, error) {
	ts, ballSS, ballGlobals, ballDist, err := exploreSystem(ctx, id, a, pol, opt, deps)
	if err != nil {
		return nil, err
	}
	defer ts.Close() // releases a cache load's mapping; no-op otherwise

	rep, err := core.AnalyzeSpaceContext(ctx, ts)
	if err != nil {
		return nil, err
	}
	resp := &Response{Request: id, Report: reportJSON(rep), CoreReport: rep}
	if err := rep.CheckHierarchy(); err != nil {
		return resp, err
	}
	if id.KFaults != nil {
		ss, globals, dist := ballSS, ballGlobals, ballDist
		if ss == nil {
			// Full-space or explicit-seed report: the ball pipeline still
			// runs exactly once, for the verdicts only.
			ss, globals, dist, err = checker.BallClosureContext(ctx, deps.Cache, a, pol, *id.KFaults, opt)
			if err != nil {
				return nil, err
			}
			if ss != nil {
				defer ss.Close()
			}
		}
		// A nil subspace (empty legitimate set) yields vacuous verdicts.
		verdicts := checker.BallVerdictsOver(ss, checker.BallLocalDistances(ss, globals, dist), *id.KFaults)
		resp.KFaults = kfaultJSON(verdicts)
		if ss != nil {
			resp.Ball = &BallJSON{ClosureStates: ss.NumStates(), TotalConfigs: ss.TotalConfigs()}
		}
	}
	if deps.Inspect != nil {
		deps.Inspect(resp, ts)
	}
	return resp, nil
}

// executeMC is the Monte Carlo estimation mode: explore (or cache-load)
// the space exactly as report mode would, then sample stabilization
// times on its CSR, targeting its legitimate set. The estimate is
// bit-identical across worker counts, so the result document stays a
// pure function of the request identity — Workers is tuning here exactly
// as it is for the exact analyses. A zero-copy mapped system is pinned
// for the walk (mc.New and RunContext acquire it), so a concurrent Close
// cannot unmap the CSR mid-walk.
func executeMC(ctx context.Context, id Request, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options, deps Deps) (*Response, error) {
	ts, _, _, _, err := exploreSystem(ctx, id, a, pol, opt, deps)
	if err != nil {
		return nil, err
	}
	defer ts.Close()

	done := obs.Or(deps.Obs).Phase("mc")
	e, err := mc.New(ts, markov.TargetFromSpace(ts))
	var res *mc.Result
	if err == nil {
		res, err = e.RunContext(ctx, mc.Options{
			Trials:   id.Trials,
			MaxSteps: id.MCMaxSteps,
			Seed:     id.Seed,
			TargetCI: id.CI,
			Workers:  opt.Workers,
			Obs:      deps.Obs,
		})
	}
	done()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	resp := &Response{
		Request:  id,
		MC:       mcJSON(a.Name(), pol.Name(), ts.NumStates(), ts.TotalConfigs(), id.Seed, res),
		MCResult: res,
	}
	if deps.Inspect != nil {
		deps.Inspect(resp, ts)
	}
	return resp, nil
}

// executeSweep is the incremental k-fault walk, always stop-at-break.
func executeSweep(ctx context.Context, id Request, a protocol.Algorithm, pol scheduler.Policy, opt statespace.Options, deps Deps) (*Response, error) {
	done := obs.Or(deps.Obs).Phase("sweep")
	res, err := checker.SweepKFaultsContext(ctx, deps.Cache, a, pol, *id.KMax, opt, true)
	done()
	if err != nil {
		return nil, err
	}
	resp := &Response{Request: id, Sweep: &SweepJSON{
		Algorithm:        a.Name(),
		Policy:           pol.Name(),
		KMax:             *id.KMax,
		Verdicts:         kfaultJSON(res.Verdicts),
		BreaksCertainAt:  res.BreaksCertainAt,
		BreaksPossibleAt: res.BreaksPossibleAt,
	}}
	if res.Sub != nil {
		resp.Ball = &BallJSON{ClosureStates: res.Sub.NumStates(), TotalConfigs: res.Sub.TotalConfigs()}
		res.Sub.Close()
	}
	return resp, nil
}

// ParseSeeds parses "1,0,2;0,0,0" into configurations of n states — the
// wire and flag syntax of Request.From.
func ParseSeeds(s string, n int) ([]protocol.Configuration, error) {
	var out []protocol.Configuration
	for _, part := range strings.Split(s, ";") {
		fields := strings.Split(strings.TrimSpace(part), ",")
		if len(fields) != n {
			return nil, fmt.Errorf("seed %q has %d states, want %d", part, len(fields), n)
		}
		cfg := make(protocol.Configuration, n)
		for i, f := range fields {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("seed %q: %w", part, err)
			}
			cfg[i] = v
		}
		out = append(out, cfg)
	}
	return out, nil
}
