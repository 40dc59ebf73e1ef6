package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"

	"weakstab/internal/checker"
	"weakstab/internal/cli"
	"weakstab/internal/core"
	"weakstab/internal/markov"
	"weakstab/internal/mc"
	"weakstab/internal/netsim"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/service"
	"weakstab/internal/statespace"
)

// bg is the context of every call the harness makes: runs are never
// cancelled.
var bg = context.Background()

// buildInstance constructs a request's algorithm and policy the way
// service.Execute does.
func buildInstance(r service.Request) (protocol.Algorithm, scheduler.Policy, error) {
	a, err := cli.Spec{Algorithm: r.Alg, N: r.N, Topology: r.Topology, K: r.K}.Build()
	if err != nil {
		return nil, nil, err
	}
	pol, err := cli.BuildPolicy(r.Policy)
	if err != nil {
		return nil, nil, err
	}
	return a, pol, nil
}

// instance is one request with its built algorithm and committed answer.
type instance struct {
	req    service.Request
	a      protocol.Algorithm
	pol    scheduler.Policy
	golden []byte
}

func (in instance) opt() statespace.Options {
	return statespace.Options{MaxStates: in.req.MaxStates, Workers: in.req.Workers}
}

func openInstances(sz *sizes, workload string, reqs []service.Request) ([]instance, error) {
	out := make([]instance, len(reqs))
	for k, r := range reqs {
		a, pol, err := buildInstance(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(r), err)
		}
		g, err := golden(sz, workload, r)
		if err != nil {
			return nil, err
		}
		out[k] = instance{req: r, a: a, pol: pol, golden: g}
	}
	return out, nil
}

// matchGolden reports whether resp renders to the instance's golden
// bytes.
func matchGolden(resp *service.Response, in instance) error {
	var b bytes.Buffer
	if err := resp.WriteJSON(&b); err != nil {
		return err
	}
	if !bytes.Equal(b.Bytes(), in.golden) {
		return fmt.Errorf("%s: result document differs from its golden", label(in.req))
	}
	return nil
}

// warmUpOp is the op index whose inputs, derived from the workload seed
// plus the index, are the same for every seed: a seeded workload warms up
// on it so that set-up time does not vary with the seed.
func warmUpOp(seed int64) int { return int(-1 - seed) }

// warmUp runs and checks op i untimed.
func warmUp(s session, i int) error {
	ans, err := s.op(i)
	if err == nil {
		_, err = s.check(i, ans)
	}
	return err
}

// inOp records fn as the root span of the tracer's current op.
func inOp(tr *tracer, fn func() error) error {
	id := tr.begin(rootOp)
	defer tr.end(id)
	return fn()
}

// executeSession is report-full and sweep-ball: one op executes every
// instance in order with no cache, as a cold stabcheck -json run would.
type executeSession struct {
	insts []instance
}

func openReport(e env) (session, error) { return openExecute(e, wReport, e.sz.report) }
func openSweep(e env) (session, error)  { return openExecute(e, wSweep, e.sz.sweep) }

func openExecute(e env, workload string, reqs []service.Request) (session, error) {
	insts, err := openInstances(e.sz, workload, reqs)
	if err != nil {
		return nil, err
	}
	s := &executeSession{insts: insts}
	return s, warmUp(s, -1)
}

func (s *executeSession) op(int) (any, error) {
	out := make([]*service.Response, len(s.insts))
	for k, in := range s.insts {
		resp, err := service.Execute(bg, in.req, service.Deps{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label(in.req), err)
		}
		out[k] = resp
	}
	return out, nil
}

func (s *executeSession) check(_ int, ans any) (any, error) {
	resps := ans.([]*service.Response)
	out := make([]answer, len(resps))
	for k, resp := range resps {
		if err := matchGolden(resp, s.insts[k]); err != nil {
			return nil, err
		}
		out[k] = answerOf(resp)
	}
	return out, nil
}

func (s *executeSession) traced(tr *tracer, _ int) (any, error) {
	out := make([]answer, len(s.insts))
	var after []func() error
	err := inOp(tr, func() error {
		for k, in := range s.insts {
			var (
				ans  answer
				post func() error
				err  error
			)
			switch {
			case in.req.KMax != nil:
				ans, err = tracedSweep(tr, in)
			case in.req.Reachable:
				ans, post, err = tracedBallReport(tr, in)
			default:
				ans, post, err = tracedFullReport(tr, in)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", label(in.req), err)
			}
			out[k] = ans
			if post != nil {
				after = append(after, post)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, post := range after {
		if err := post(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *executeSession) finish(*tracer) (map[string]float64, error) { return nil, nil }
func (s *executeSession) close() error                               { return nil }

// tracedFullReport is executeReport over the full index range, one layer
// call per span. The returned post step runs after the op: it rebuilds
// the space on one worker and probes the SCC kernel on the solver's
// transient subgraph. It keeps only the space's size, not the space, so
// the op's live heap, and with it the garbage collector's pace, matches
// the untraced op's.
func tracedFullReport(tr *tracer, in instance) (answer, func() error, error) {
	var (
		sp  *statespace.Space
		err error
	)
	id := tr.do("statespace.build", func() { sp, err = statespace.BuildContext(bg, in.a, in.pol, in.opt()) })
	if err != nil {
		return answer{}, nil, err
	}
	states, edges := sp.NumStates(), sp.Edges()
	tr.count(id, "states", int64(states))
	tr.count(id, "edges", edges)
	tr.do("statespace.reverse", func() { sp.Reverse() })
	rep, transient, err := tracedAnalyze(tr, sp)
	if err != nil {
		return answer{}, nil, err
	}
	post := func() error {
		opt := in.opt()
		opt.Workers = 1
		var w1 *statespace.Space
		id := tr.do("statespace.build.w1", func() { w1, err = statespace.BuildContext(bg, in.a, in.pol, opt) })
		if err != nil {
			return err
		}
		if w1.NumStates() != states || w1.Edges() != edges {
			return fmt.Errorf("%s: one-worker build differs", label(in.req))
		}
		tr.count(id, "states", int64(states))
		probeSCC(tr, w1, transient)
		return nil
	}
	return answer{Report: rep}, post, nil
}

// probeSCC times the condensation kernel inside markov.HittingTimes on
// its own.
func probeSCC(tr *tracer, ts statespace.TransitionSystem, transient []bool) {
	off, succ, _ := ts.CSR()
	tr.do("statespace.scc", func() { statespace.SCC(ts.NumStates(), off, succ, transient) })
}

// tracedAnalyze is core.AnalyzeSpaceContext, one layer call per span. It
// also returns the transient states the hitting-time solve condenses.
func tracedAnalyze(tr *tracer, ts statespace.TransitionSystem) (*core.Report, []bool, error) {
	sp := checker.FromSpace(ts)
	var (
		closure           checker.ClosureResult
		possible, certain checker.ConvergenceResult
		lasso             checker.FairLasso
	)
	tr.do("checker.closure", func() { closure = sp.CheckClosure() })
	tr.do("checker.possible", func() { possible = sp.CheckPossibleConvergence() })
	tr.do("checker.certain", func() { certain = sp.CheckCertainConvergence() })
	tr.do("checker.lasso", func() { lasso = sp.FindStronglyFairLasso() })
	var (
		chain *markov.Chain
		err   error
	)
	tr.do("markov.from_space", func() { chain, err = markov.FromSpace(ts) })
	if err != nil {
		return nil, nil, err
	}
	target := markov.TargetFromSpace(ts)
	var probOne []bool
	tr.do("markov.prob_one", func() { probOne = chain.ReachesWithProbOne(target) })
	allOne := true
	transient := make([]bool, len(probOne))
	for s, ok := range probOne {
		allOne = allOne && ok
		transient[s] = ok && !target[s]
	}
	var radius float64
	tr.do("checker.radius", func() { radius = sp.MaxShortestConvergencePath() })
	rep := &core.Report{
		Algorithm:                ts.Algorithm().Name(),
		Policy:                   ts.Policy().Name(),
		States:                   ts.NumStates(),
		Closure:                  closure.Holds,
		PossibleConvergence:      possible.Holds,
		CertainConvergence:       certain.Holds,
		ProbabilisticConvergence: allOne,
		FairLassoFound:           lasso.Found,
		ConvergenceRadius:        radius,
		TotalConfigs:             ts.TotalConfigs(),
	}
	if allOne {
		var h []float64
		tr.do("markov.hitting", func() { h, err = chain.HittingTimesContext(bg, target) })
		if err != nil {
			return nil, nil, err
		}
		rep.ExpectedSteps = markov.Summarize(h, target)
	}
	return rep, transient, rep.CheckHierarchy()
}

// tracedBallReport is executeReport on the fault-ball closure (reachable
// with a fault radius and no explicit seeds): one ball enumeration, one
// frontier exploration, the analysis, and the ball verdicts. The post
// step probes the SCC kernel on the subspace, which stays live until the
// op ends.
func tracedBallReport(tr *tracer, in instance) (answer, func() error, error) {
	k := *in.req.KFaults
	opt := in.opt()
	var (
		globals []int64
		dist    []int
		err     error
	)
	tr.do("checker.faultball", func() { globals, dist, err = checker.FaultBallContext(bg, in.a, k, opt.Workers, opt.MaxStates) })
	if err != nil {
		return answer{}, nil, err
	}
	if len(globals) == 0 {
		return answer{}, nil, fmt.Errorf("the legitimate set is empty")
	}
	var ss *statespace.SubSpace
	id := tr.do("statespace.frontier", func() { ss, err = statespace.BuildFromContext(bg, in.a, in.pol, globals, opt) })
	if err != nil {
		return answer{}, nil, err
	}
	tr.count(id, "states", int64(ss.NumStates()))
	tr.do("statespace.reverse", func() { ss.Reverse() })
	rep, transient, err := tracedAnalyze(tr, ss)
	if err != nil {
		return answer{}, nil, err
	}
	var verdicts []checker.KFaultVerdict
	id = tr.do("checker.ball_verdict", func() {
		verdicts = checker.BallVerdictsOver(ss, checker.BallLocalDistances(ss, globals, dist), k)
	})
	tr.count(id, "closure_states", int64(ss.NumStates()))
	ans := answer{
		Report:  rep,
		KFaults: wireVerdicts(verdicts),
		Ball:    &service.BallJSON{ClosureStates: ss.NumStates(), TotalConfigs: ss.TotalConfigs()},
	}
	return ans, func() error { probeSCC(tr, ss, transient); return nil }, nil
}

// tracedSweep is executeSweep (checker.SweepKFaults without a cache,
// stopping at the first radius that breaks certain convergence), one
// ball step per span.
func tracedSweep(tr *tracer, in instance) (answer, error) {
	kmax := *in.req.KMax
	var (
		sw  *checker.BallSweep
		err error
	)
	tr.do("checker.ball_seed", func() { sw, err = checker.NewBallSweepContext(bg, in.a, in.pol, in.opt()) })
	if err != nil {
		return answer{}, err
	}
	res := &service.SweepJSON{Algorithm: in.a.Name(), Policy: in.pol.Name(), KMax: kmax,
		BreaksCertainAt: -1, BreaksPossibleAt: -1}
	var (
		last   *statespace.SubSpace
		lastID int
	)
	for k := 0; k <= kmax; k++ {
		if k > 0 {
			tr.do("checker.ball_grow", func() { err = sw.GrowToContext(bg, k) })
			if err != nil {
				return answer{}, err
			}
		}
		var (
			ss      *statespace.SubSpace
			globals []int64
			dist    []int
		)
		tr.do("checker.ball_seal", func() { ss, globals, dist, err = sw.SealContext(bg) })
		if err != nil {
			return answer{}, err
		}
		var v checker.KFaultVerdict
		lastID = tr.do("checker.ball_verdict", func() {
			v = checker.BallVerdictAt(ss, checker.BallLocalDistances(ss, globals, dist), k)
		})
		res.Verdicts = append(res.Verdicts, wireVerdicts([]checker.KFaultVerdict{v})...)
		last = ss
		if !v.Possible && res.BreaksPossibleAt < 0 {
			res.BreaksPossibleAt = k
		}
		if !v.Certain && res.BreaksCertainAt < 0 {
			res.BreaksCertainAt = k
			break
		}
	}
	ans := answer{Sweep: res}
	if last != nil {
		tr.count(lastID, "closure_states", int64(last.NumStates()))
		ans.Ball = &service.BallJSON{ClosureStates: last.NumStates(), TotalConfigs: last.TotalConfigs()}
	}
	return ans, nil
}

// wireVerdicts renders checker verdicts in the result document's form.
func wireVerdicts(vs []checker.KFaultVerdict) []service.KFaultJSON {
	out := make([]service.KFaultJSON, len(vs))
	for i, v := range vs {
		out[i] = service.KFaultJSON{K: v.K, Configs: v.Configs, Possible: v.Possible, Certain: v.Certain}
		if v.Counterexample != nil {
			out[i].Counterexample = []int(v.Counterexample)
		}
	}
	return out
}

// mcSession is mc-herman: op i estimates the mean stabilization time with
// the walker seed set to the workload seed plus i.
type mcSession struct {
	seed  int64
	in    instance
	exact float64
}

func openMC(e env) (session, error) {
	a, pol, err := buildInstance(e.sz.mc)
	if err != nil {
		return nil, err
	}
	em, err := loadExactMean(e.sz)
	if err != nil {
		return nil, err
	}
	if em.Instance != a.Name() {
		return nil, fmt.Errorf("exact mean golden is for %s, not %s", em.Instance, a.Name())
	}
	s := &mcSession{seed: e.seed, in: instance{req: e.sz.mc, a: a, pol: pol}, exact: em.Mean}
	return s, warmUp(s, warmUpOp(e.seed))
}

func (s *mcSession) request(i int) service.Request {
	r := s.in.req
	r.Seed = s.seed + int64(i)
	return r
}

func (s *mcSession) op(i int) (any, error) {
	return service.Execute(bg, s.request(i), service.Deps{})
}

// mcTolSE is how many standard errors an estimate may lie from the exact
// mean. Every op is checked, several hundred per run: at 4 standard
// errors one correct op in 16,000 would fail, at 6 one in 500 million.
const mcTolSE = 6

// check accepts an estimate whose mean lies within mcTolSE standard
// errors of the exact mean and whose walkers all reached the legitimate
// set.
func (s *mcSession) check(i int, ans any) (any, error) {
	res := ans.(*service.Response).MCResult
	tol := mcTolSE * res.Summary.Std / math.Sqrt(float64(res.Summary.Count))
	if res.Hits != res.Trials || math.Abs(res.Summary.Mean-s.exact) > tol {
		return nil, fmt.Errorf("op %d: mean %.4f (%d of %d walkers hit) is not within %d·SE=%.4f of the exact %.4f",
			i, res.Summary.Mean, res.Hits, res.Trials, mcTolSE, tol, s.exact)
	}
	return mcAnswer(res), nil
}

// mcAnswer is the estimate without its per-walker hitting times, which
// its summary, CDF and step total already pin: kept for every op of a
// traced run's reference, a million walkers' times would weigh 8 MB each.
func mcAnswer(res *mc.Result) mc.Result {
	out := *res
	out.Steps = nil
	return out
}

// traced is executeMC: explore, build the sampling tables, walk. After
// the op the walk reruns on one worker, which must give the same result.
func (s *mcSession) traced(tr *tracer, i int) (any, error) {
	id := s.request(i)
	opt := mc.Options{Trials: id.Trials, MaxSteps: mc.DefaultMaxSteps, Seed: id.Seed}
	var (
		e   *mc.Estimator
		res *mc.Result
	)
	err := inOp(tr, func() error {
		var (
			sp  *statespace.Space
			err error
		)
		tr.do("mc.explore", func() { sp, err = statespace.BuildContext(bg, s.in.a, s.in.pol, s.in.opt()) })
		if err != nil {
			return err
		}
		tr.do("mc.new", func() { e, err = mc.New(sp, markov.TargetFromSpace(sp)) })
		if err != nil {
			return err
		}
		run := tr.do("mc.run", func() { res, err = e.RunContext(bg, opt) })
		if err != nil {
			return err
		}
		tr.count(run, "walker_steps", res.WalkerSteps)
		return nil
	})
	if err != nil {
		return nil, err
	}
	opt.Workers = 1
	var w1 *mc.Result
	run := tr.do("mc.run.w1", func() { w1, err = e.RunContext(bg, opt) })
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(w1, res) {
		return nil, fmt.Errorf("op %d: one-worker walk differs", i)
	}
	tr.count(run, "walker_steps", w1.WalkerSteps)
	return mcAnswer(res), nil
}

func (s *mcSession) finish(*tracer) (map[string]float64, error) { return nil, nil }
func (s *mcSession) close() error                               { return nil }

// netsimSession is netsim-restab: op i runs the restabilization trials
// with the master seed set to the workload seed plus i.
type netsimSession struct {
	seed int64
	spec netsimSpec
	a    protocol.Algorithm
}

func openNetsim(e env) (session, error) {
	a, err := cli.Spec{Algorithm: "coloring", N: e.sz.netsim.N}.Build()
	if err != nil {
		return nil, err
	}
	s := &netsimSession{seed: e.seed, spec: e.sz.netsim, a: a}
	return s, warmUp(s, warmUpOp(e.seed))
}

func (s *netsimSession) run(i, workers int) (netsim.TrialResult, error) {
	// Fault injectors count their events, so every run gets a fresh stack.
	faults, err := cli.ParseFaults(s.spec.Faults)
	if err != nil {
		return netsim.TrialResult{}, err
	}
	opts := netsim.Options{Seed: s.seed + int64(i), Faults: faults, CheckEvery: s.spec.CheckEvery, Workers: workers}
	return netsim.Restabilization(s.a, s.spec.Trials, s.spec.Corrupt, opts)
}

func (s *netsimSession) op(i int) (any, error) { return s.run(i, 0) }

// check accepts a batch in which every trial restabilized.
func (s *netsimSession) check(i int, ans any) (any, error) {
	res := ans.(netsim.TrialResult)
	if res.Failures > 0 || len(res.Rounds) != s.spec.Trials {
		return nil, fmt.Errorf("op %d: %d of %d trials did not restabilize", i, res.Failures, s.spec.Trials)
	}
	return res, nil
}

// procRounds is the number of process-rounds a batch simulated.
func (s *netsimSession) procRounds(res netsim.TrialResult) int64 {
	var rounds float64
	for _, r := range res.Rounds {
		rounds += r
	}
	return int64(rounds) * int64(s.spec.N)
}

// traced is the op as one library call. After the op the topology
// precompute is probed on its own and the batch reruns on one worker,
// which must give the same result.
func (s *netsimSession) traced(tr *tracer, i int) (any, error) {
	var res netsim.TrialResult
	err := inOp(tr, func() error {
		var err error
		id := tr.do("netsim.restab", func() { res, err = s.run(i, 0) })
		tr.count(id, "proc_rounds", s.procRounds(res))
		tr.count(id, "messages", res.Sent)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.do("netsim.topology", func() { _, err = netsim.NewTopology(s.a) })
	if err != nil {
		return nil, err
	}
	var w1 netsim.TrialResult
	id := tr.do("netsim.restab.w1", func() { w1, err = s.run(i, 1) })
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(w1, res) {
		return nil, fmt.Errorf("op %d: one-worker batch differs", i)
	}
	tr.count(id, "proc_rounds", s.procRounds(w1))
	return res, nil
}

func (s *netsimSession) finish(*tracer) (map[string]float64, error) { return nil, nil }
func (s *netsimSession) close() error                               { return nil }
