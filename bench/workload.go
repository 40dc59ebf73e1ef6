package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"weakstab/internal/core"
	"weakstab/internal/service"
)

// A session is one set-up workload: its instances, reference answers and,
// for serve-mixed, a running server. Ops are numbered from 0; op i has
// the same inputs in every run with the same seed.
type session interface {
	// op runs op i through the user's entry point.
	op(i int) (any, error)
	// check verifies the answer of op(i) and returns it in the form the
	// traced decomposition produces.
	check(i int, ans any) (any, error)
	// traced runs op i as a sequence of layer calls recorded on tr and
	// returns the decomposed answer.
	traced(tr *tracer, i int) (any, error)
	// finish runs the traced run's own probes on tr and returns the
	// session's scalar per-layer metrics.
	finish(tr *tracer) (map[string]float64, error)
	close() error
}

// env is what every session shares: the workload seed, the instance
// sizes and a directory for scratch files.
type env struct {
	seed    int64
	sz      *sizes
	workdir string
}

// A workload is one closed-loop traffic pattern.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients; a single client runs
	// runtime.GC() before every op, untimed, so each op starts on a fresh
	// heap as a CLI run would.
	clients int
	// rate is the op rate, per second, that sizes an untraced run: about
	// the rate of the commit that added the benchmark on the calibration
	// box.
	rate float64
	open func(env) (session, error)
}

var workloads = []workload{
	{wReport, "full-range explore, every checker pass and the SCC-condensed solve over four instances of all four classes, central and distributed", 1, 2, openReport},
	{wSweep, "ball enumeration, frontier extend/seal and subspace analyses touching <4% of the index range; the control for full-range explore changes", 1, 0.5, openSweep},
	{wMC, "the Monte Carlo walker loop over a 2,048-state space; the only workload where mc dominates and explore is idle", 1, 2.5, openMC},
	{wNetsim, "the message-passing round loop and fault stack with no state space; the control for every other layer", 1, 2, openNetsim},
	{wServe, "Zipf traffic over 24 identities with an LRU of 8: cold, warm-disk, LRU and deduped answers through the queue, cache and HTTP", 2, 350, openServe},
}

// ops is the op count of an untraced run of the given length. It depends
// on the length alone, never on how fast the ops run, so every commit does
// the same work: a faster commit finishes sooner, and a serve-mixed run
// always serves the same requests from the same prefix of its sequence.
func (w workload) ops(seconds int) int {
	return max(1, int(math.Round(w.rate*float64(seconds))))
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sample is one op as the closed loop saw it.
type sample struct {
	lat time.Duration
	ans any
	err error
}

// loopResult is one closed-loop run over a session.
type loopResult struct {
	samples []sample // by op index
	// wall is the timed wall time: the summed op latencies for a single
	// client (the forced GC between ops is not timed), the window from
	// first issue to last completion otherwise.
	wall time.Duration
	// cpu is user plus system CPU time over the timed ops (for a single
	// client, summed per op so the forced GC is excluded).
	cpu     time.Duration
	tracers []*tracer
}

func (r loopResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (r loopResult) latenciesMS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = ms(s.lat)
	}
	return out
}

// loopMode selects how runLoop runs each op and what it keeps.
type loopMode int

const (
	// measure runs ops untraced and drops their checked answers, so the
	// harness's memory does not grow with the op count.
	measure loopMode = iota
	// reference runs ops untraced and keeps their checked answers.
	reference
	// decompose runs ops traced; their answers must equal the reference.
	decompose
)

// runLoop drives a session with w.clients closed-loop clients through
// ops 0..n-1, each client taking the next op index as it finishes one.
// Traced ops record on one tracer per client, and their answers must
// equal ref[i]; untraced answers go through the session's check.
func runLoop(w workload, s session, t0 time.Time, mode loopMode, ref []any, n int) loopResult {
	var (
		res     loopResult
		next    atomic.Int64
		wg      sync.WaitGroup
		cpuSum  atomic.Int64
		latSum  atomic.Int64
		samples = make([]sample, n)
	)
	start := time.Now()
	ru0 := cpuTime()
	for c := 0; c < w.clients; c++ {
		var tr *tracer
		if mode == decompose {
			tr = newTracer(t0)
			res.tracers = append(res.tracers, tr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if w.clients == 1 {
					runtime.GC()
				}
				c0 := cpuTime()
				t := time.Now()
				var (
					ans any
					err error
				)
				if tr != nil {
					tr.op = i
					ans, err = s.traced(tr, i)
				} else {
					ans, err = s.op(i)
				}
				lat := time.Since(t)
				cpuSum.Add(int64(cpuTime() - c0))
				latSum.Add(int64(lat))
				if err == nil {
					if tr != nil {
						if i >= len(ref) || !reflect.DeepEqual(ans, ref[i]) {
							err = fmt.Errorf("op %d: decomposed answer differs from the untraced answer", i)
						}
					} else {
						ans, err = s.check(i, ans)
					}
				}
				if mode != reference {
					ans = nil
				}
				samples[i] = sample{lat: lat, ans: ans, err: err} // op i is this client's alone
			}
		}()
	}
	wg.Wait()
	res.samples = samples
	if w.clients == 1 {
		res.wall = time.Duration(latSum.Load())
		res.cpu = time.Duration(cpuSum.Load())
	} else {
		res.wall = time.Since(start)
		res.cpu = cpuTime() - ru0
	}
	return res
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// newWorkdir creates a fresh scratch directory under the env's workdir.
func (e env) newWorkdir(prefix string) (string, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.workdir, prefix)
}

// answer is the content of one result document in the form both the
// untraced Execute path and the traced decomposition produce, so the two
// can be compared value for value.
type answer struct {
	Report  *core.Report
	KFaults []service.KFaultJSON
	Sweep   *service.SweepJSON
	Ball    *service.BallJSON
}

func answerOf(resp *service.Response) answer {
	return answer{Report: resp.CoreReport, KFaults: resp.KFaults, Sweep: resp.Sweep, Ball: resp.Ball}
}
