package service

// Manager semantics, pinned by exact exploration accounting: concurrent
// identical submissions cost exactly one exploration, a warm repeat is
// answered from the result LRU without touching disk or algorithm, a
// cancel stops the exploration cooperatively and leaves no partial cache
// entry, and the admission queue rejects (never blocks) when full.

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/obs"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// countingAlg counts the calls exploration makes into the algorithm (the
// PR-4 accounting pattern). Not protocol.Deterministic, so the engine
// takes the general Outcomes path.
type countingAlg struct {
	protocol.Algorithm
	legit   atomic.Int64
	enabled atomic.Int64
}

func (c *countingAlg) Legitimate(cfg protocol.Configuration) bool {
	c.legit.Add(1)
	return c.Algorithm.Legitimate(cfg)
}

func (c *countingAlg) EnabledAction(cfg protocol.Configuration, p int) int {
	c.enabled.Add(1)
	return c.Algorithm.EnabledAction(cfg, p)
}

// gateAlg blocks the exploration inside its first EnabledAction call
// until released, making "mid-exploration" a deterministic program point
// instead of a sleep.
type gateAlg struct {
	protocol.Algorithm
	gate    atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGateAlg(inner protocol.Algorithm) *gateAlg {
	g := &gateAlg{Algorithm: inner, entered: make(chan struct{}), release: make(chan struct{})}
	g.gate.Store(true)
	return g
}

func (g *gateAlg) EnabledAction(cfg protocol.Configuration, p int) int {
	if g.gate.Load() {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.Algorithm.EnabledAction(cfg, p)
}

func ringRequest(n int) Request {
	return Request{Alg: "tokenring", N: n}
}

// submitWait submits req and waits for the job's outcome.
func submitWait(m *Manager, req Request) (*Response, error) {
	j, _, err := m.Submit(req)
	if err != nil {
		return nil, err
	}
	return j.Result()
}

func buildCounting(c *countingAlg) func(Request) (protocol.Algorithm, scheduler.Policy, error) {
	return func(Request) (protocol.Algorithm, scheduler.Policy, error) {
		return c, scheduler.CentralPolicy, nil
	}
}

// TestConcurrentSubmitsExploreOnce pins the singleflight: N concurrent
// identical submissions cost exactly the algorithm calls of one solo run.
func TestConcurrentSubmitsExploreOnce(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}

	// Solo run: snapshot the exact call counts of one exploration.
	solo := &countingAlg{Algorithm: inner}
	m := NewManager(Config{Deps: Deps{Build: buildCounting(solo)}})
	if _, err := submitWait(m, ringRequest(5)); err != nil {
		t.Fatal(err)
	}
	m.Shutdown(context.Background())
	wantLegit, wantEnabled := solo.legit.Load(), solo.enabled.Load()
	if wantLegit == 0 || wantEnabled == 0 {
		t.Fatalf("solo run made no algorithm calls (legit=%d enabled=%d)", wantLegit, wantEnabled)
	}

	// N concurrent submissions of the identical request.
	shared := &countingAlg{Algorithm: inner}
	m = NewManager(Config{Deps: Deps{Build: buildCounting(shared)}, Workers: 4})
	defer m.Shutdown(context.Background())
	const N = 8
	var (
		wg      sync.WaitGroup
		deduped atomic.Int64
	)
	resps := make([]*Response, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, dup, err := m.Submit(ringRequest(5))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if dup {
				deduped.Add(1)
			}
			resp, err := j.Result()
			if err != nil {
				t.Errorf("result %d: %v", i, err)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()

	if got := shared.legit.Load(); got != wantLegit {
		t.Errorf("%d concurrent submissions made %d Legitimate calls, want exactly %d (one exploration)", N, got, wantLegit)
	}
	if got := shared.enabled.Load(); got != wantEnabled {
		t.Errorf("%d concurrent submissions made %d EnabledAction calls, want exactly %d (one exploration)", N, got, wantEnabled)
	}
	if deduped.Load() != N-1 {
		t.Errorf("%d of %d submissions were deduped, want %d", deduped.Load(), N, N-1)
	}
	for i, r := range resps {
		if r != resps[0] {
			t.Errorf("submission %d got a different *Response than submission 0: the document was not shared", i)
		}
	}
}

// TestWarmRepeatServedFromLRU pins the warm path: a repeat submission is
// born Done with source "lru", hands out the identical document pointer,
// and costs zero algorithm calls (so neither exploration nor a disk
// decode happened).
func TestWarmRepeatServedFromLRU(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	c := &countingAlg{Algorithm: inner}
	m := NewManager(Config{Deps: Deps{Build: buildCounting(c)}})
	defer m.Shutdown(context.Background())

	j1, dup, err := m.Submit(ringRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Fatal("cold submission reported deduped")
	}
	cold, err := j1.Result()
	if err != nil {
		t.Fatal(err)
	}
	legit, enabled := c.legit.Load(), c.enabled.Load()

	j2, dup, err := m.Submit(ringRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("warm submission not reported deduped")
	}
	state, source, warm, _ := j2.Status()
	if state != StateDone {
		t.Errorf("warm job born %q, want %q", state, StateDone)
	}
	if source != "lru" {
		t.Errorf("warm job source %q, want lru", source)
	}
	if warm != cold {
		t.Error("warm document is not the cold document pointer: the LRU re-built it")
	}
	if c.legit.Load() != legit || c.enabled.Load() != enabled {
		t.Errorf("warm repeat made algorithm calls (legit +%d, enabled +%d), want none",
			c.legit.Load()-legit, c.enabled.Load()-enabled)
	}
}

// countFiles counts regular files under dir, recursively.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

// TestCancelMidExploration pins the cancel path end to end: a running
// job canceled mid-exploration finishes StateCanceled with a wrapped
// context.Canceled, leaves no partial entry in the disk cache, and frees
// its worker slot for the next job.
func TestCancelMidExploration(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(inner)
	dir := t.TempDir()
	cache, err := spacecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Deps: Deps{
			Cache: cache,
			Build: func(Request) (protocol.Algorithm, scheduler.Policy, error) {
				return g, scheduler.CentralPolicy, nil
			},
		},
		Workers: 1,
	})
	defer m.Shutdown(context.Background())

	// Explicit-seed forward closure: a multi-shell frontier exploration,
	// so the cancel provably lands between shell boundaries.
	req := ringRequest(6)
	req.Reachable = true
	req.From = "1,0,1,0,0,0"
	j, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // the exploration is provably mid-flight
	cancelByID(t, m, j.ID)
	g.gate.Store(false)
	close(g.release)

	_, err = j.Result()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job error = %v, want a wrapped context.Canceled", err)
	}
	state, _, _, _ := j.Status()
	if state != StateCanceled {
		t.Errorf("canceled job state %q, want %q", state, StateCanceled)
	}
	if n := countFiles(t, dir); n != 0 {
		t.Errorf("canceled exploration left %d cache entries, want 0 (no partial entry)", n)
	}

	// The slot is free: the same request resubmitted runs to completion
	// (nothing cached, so it is a real second run through the ungated alg).
	resp, err := submitWait(m, req)
	if err != nil {
		t.Fatalf("job after cancel: %v", err)
	}
	if resp.Report == nil {
		t.Error("job after cancel returned no report")
	}
	if n := countFiles(t, dir); n == 0 {
		t.Error("completed run stored no cache entry")
	}
}

// TestDeadlineCancelsJob pins per-job deadlines: a job whose TimeoutMS
// expires mid-exploration finishes StateCanceled with a wrapped
// context.DeadlineExceeded.
func TestDeadlineCancelsJob(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(inner)
	m := NewManager(Config{
		Deps: Deps{Build: func(Request) (protocol.Algorithm, scheduler.Policy, error) {
			return g, scheduler.CentralPolicy, nil
		}},
		Workers: 1,
	})
	defer m.Shutdown(context.Background())

	req := ringRequest(6)
	req.TimeoutMS = 20
	j, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered
	<-j.ctx.Done() // the deadline fires while the exploration is blocked
	g.gate.Store(false)
	close(g.release)

	_, err = j.Result()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline job error = %v, want a wrapped context.DeadlineExceeded", err)
	}
	state, _, _, _ := j.Status()
	if state != StateCanceled {
		t.Errorf("deadline job state %q, want %q", state, StateCanceled)
	}
}

// TestQueueFullRejects pins backpressure: with one worker blocked and
// the depth-1 queue holding one job, a third distinct submission fails
// fast with ErrQueueFull instead of blocking the submitter.
func TestQueueFullRejects(t *testing.T) {
	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(ring5) // only the first request gates
	build := func(r Request) (protocol.Algorithm, scheduler.Policy, error) {
		if r.N == 5 {
			return g, scheduler.CentralPolicy, nil
		}
		inner, err := tokenring.New(r.N)
		if err != nil {
			return nil, nil, err
		}
		return inner, scheduler.CentralPolicy, nil
	}
	m := NewManager(Config{Deps: Deps{Build: build}, Workers: 1, QueueDepth: 1})

	a, _, err := m.Submit(ringRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // the worker slot is provably occupied
	if _, _, err := m.Submit(ringRequest(6)); err != nil {
		t.Fatalf("queueing second job: %v", err)
	}
	if _, _, err := m.Submit(ringRequest(7)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission error = %v, want ErrQueueFull", err)
	}

	g.gate.Store(false)
	close(g.release)
	<-a.Done()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrains pins graceful drain: Shutdown finishes queued work,
// then rejects new submissions with ErrDraining.
func TestShutdownDrains(t *testing.T) {
	inner, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	c := &countingAlg{Algorithm: inner}
	m := NewManager(Config{Deps: Deps{Build: buildCounting(c)}})
	j, _, err := m.Submit(ringRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err != nil {
		t.Errorf("drained job failed: %v", err)
	}
	if _, _, err := m.Submit(ringRequest(5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submission error = %v, want ErrDraining", err)
	}
	// Shutdown is idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDeadlineCancelsOutstanding pins the hard-drain path: when
// the drain budget expires, outstanding jobs are canceled (cooperatively)
// and Shutdown still waits for the pool before returning the ctx error.
func TestShutdownDeadlineCancelsOutstanding(t *testing.T) {
	inner, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(inner)
	m := NewManager(Config{
		Deps: Deps{Build: func(Request) (protocol.Algorithm, scheduler.Policy, error) {
			return g, scheduler.CentralPolicy, nil
		}},
		Workers: 1,
	})
	j, _, err := m.Submit(ringRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered
	go func() {
		// The exploration unblocks only after the drain budget expired
		// and the root cancel propagated.
		<-j.ctx.Done()
		g.gate.Store(false)
		close(g.release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard drain returned %v, want context.DeadlineExceeded", err)
	}
	if _, err := j.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("hard-drained job error = %v, want a wrapped context.Canceled", err)
	}
}

// TestCancelQueuedJob pins that a queued job canceled before a worker
// takes it finishes immediately and never runs.
func TestCancelQueuedJob(t *testing.T) {
	ring5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	ring6, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateAlg(ring5)
	cb := &countingAlg{Algorithm: ring6}
	build := func(r Request) (protocol.Algorithm, scheduler.Policy, error) {
		if r.N == 5 {
			return g, scheduler.CentralPolicy, nil
		}
		return cb, scheduler.CentralPolicy, nil
	}
	m := NewManager(Config{Deps: Deps{Build: build}, Workers: 1, QueueDepth: 2})
	a, _, err := m.Submit(ringRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // the one worker is provably busy, so b stays queued
	b, _, err := m.Submit(ringRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	cancelByID(t, m, b.ID)
	// The canceled-while-queued job is terminal before its slot frees.
	select {
	case <-b.Done():
	default:
		t.Fatal("canceled queued job not terminal immediately")
	}
	if _, err := b.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued job error = %v, want a wrapped context.Canceled", err)
	}

	g.gate.Store(false)
	close(g.release)
	<-a.Done()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The worker skipped the canceled job on dequeue: its algorithm was
	// never called.
	if l, e := cb.legit.Load(), cb.enabled.Load(); l != 0 || e != 0 {
		t.Errorf("canceled queued job explored anyway (legit=%d enabled=%d), want 0", l, e)
	}
}

// TestRunningGauge pins service.jobs.running: with N jobs held inside
// Execute it reads N, and once they drain (one of them canceled while
// running) it reads 0.
func TestRunningGauge(t *testing.T) {
	const N = 3
	gates := make(map[int]*gateAlg, N)
	for i := 0; i < N; i++ {
		inner, err := tokenring.New(5 + i)
		if err != nil {
			t.Fatal(err)
		}
		gates[5+i] = newGateAlg(inner)
	}
	o := obs.New()
	m := NewManager(Config{
		Deps: Deps{Obs: o, Build: func(r Request) (protocol.Algorithm, scheduler.Policy, error) {
			return gates[r.N], scheduler.CentralPolicy, nil
		}},
		Workers: N,
	})
	defer m.Shutdown(context.Background())
	gauge := o.Gauge("service.jobs.running")

	jobs := make([]*Job, N)
	for i := range jobs {
		j, _, err := m.Submit(ringRequest(5 + i))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, g := range gates {
		<-g.entered // every worker is provably inside Execute
	}
	if got := gauge.Value(); got != N {
		t.Fatalf("running gauge = %d with %d jobs inside Execute, want %d", got, N, N)
	}

	cancelByID(t, m, jobs[0].ID)
	for _, g := range gates {
		g.gate.Store(false)
		close(g.release)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("running gauge = %d after every job finished, want 0", got)
	}
}

// panicAlg panics in its guard, as a buggy algorithm would, from inside
// the exploration's worker pool.
type panicAlg struct{ protocol.Algorithm }

func (panicAlg) EnabledAction(protocol.Configuration, int) int { panic("guard exploded") }

// TestPanickingJobFailsAlone pins panic isolation: a job whose algorithm
// panics ends Failed with ErrPanic and is counted, and the same Manager
// then completes a normal job. A job large enough to be explored in
// chunks on two workers panics on a pool worker, and its error still
// names the algorithm frame that panicked.
func TestPanickingJobFailsAlone(t *testing.T) {
	small, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := tokenring.New(8) // > 4,096 configurations: several chunks
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	m := NewManager(Config{
		Deps: Deps{Obs: o, Build: func(r Request) (protocol.Algorithm, scheduler.Policy, error) {
			switch r.N {
			case 5:
				return panicAlg{small}, scheduler.CentralPolicy, nil
			case 8:
				return panicAlg{large}, scheduler.CentralPolicy, nil
			}
			return buildInstance(r)
		}},
		Workers: 1,
	})
	defer m.Shutdown(context.Background())

	pooled := ringRequest(8)
	pooled.Workers = 2
	for i, req := range []Request{ringRequest(5), pooled} {
		bad, _, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = bad.Result()
		if !errors.Is(err, ErrPanic) {
			t.Fatalf("panicking job %+v: err = %v, want ErrPanic", req, err)
		}
		if !strings.Contains(err.Error(), "panicAlg.EnabledAction") {
			t.Fatalf("panicking job %+v: error does not name the panicking frame:\n%v", req, err)
		}
		if state, _, _, _ := bad.Status(); state != StateFailed {
			t.Fatalf("panicking job state = %s, want %s", state, StateFailed)
		}
		if got := o.Counter("service.jobs.panicked").Value(); got != int64(i+1) {
			t.Fatalf("service.jobs.panicked = %d, want %d", got, i+1)
		}
	}

	good, _, err := m.Submit(ringRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := good.Result(); err != nil || resp == nil {
		t.Fatalf("job after a panic: resp=%v err=%v", resp != nil, err)
	}
	if state, _, _, _ := good.Status(); state != StateDone {
		t.Fatalf("job after a panic ended %s, want %s", state, StateDone)
	}
}

// cancelByID cancels a retained job the way DELETE /jobs/{id} does.
func cancelByID(t *testing.T, m *Manager, id string) {
	t.Helper()
	j, err := m.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	m.cancelJob(j)
}

// TestRetiredJobs pins the retention window: a finished job stays
// resolvable until retainFinished later jobs have finished, then its ID
// reports ErrRetired; IDs never handed out stay ErrNotFound.
func TestRetiredJobs(t *testing.T) {
	m := NewManager(Config{FeedDepth: 16})
	defer m.Shutdown(context.Background())
	first, _, err := m.Submit(ringRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Result(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < retainFinished; i++ {
		if _, err := m.Job(first.ID); err != nil {
			t.Fatalf("after %d later jobs finished, %s: %v, want retained", i, first.ID, err)
		}
		j, _, err := m.Submit(ringRequest(3)) // answered from the LRU
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	for _, id := range []string{first.ID, "job-1"} {
		if _, err := m.Job(id); !errors.Is(err, ErrRetired) {
			t.Errorf("Job(%q) = %v, want ErrRetired", id, err)
		}
	}
	// DELETE resolves the ID first, so a retired job is never cancelled
	// by ID; a caller still holding one cancels nothing.
	m.cancelJob(first)
	if state, _, _, _ := first.Status(); state != StateDone {
		t.Errorf("cancelling retired %s left it %s, want %s", first.ID, state, StateDone)
	}
	if _, err := m.Job("job-2"); err != nil {
		t.Errorf("job-2, inside the window: %v", err)
	}
	last := "job-" + strconv.Itoa(retainFinished+1)
	for _, id := range []string{"job-0", "job-" + strconv.Itoa(retainFinished+2), "job-02", "job-+2", "2", "job-", "bogus", ""} {
		if _, err := m.Job(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Job(%q) = %v, want ErrNotFound (the last ID handed out is %s)", id, err, last)
		}
	}
	jobs := m.Jobs()
	if len(jobs) != retainFinished || jobs[0].ID != "job-2" || jobs[len(jobs)-1].ID != last {
		t.Errorf("Jobs() = %d jobs %s..%s, want %d jobs job-2..%s", len(jobs), jobs[0].ID, jobs[len(jobs)-1].ID, retainFinished, last)
	}
}

// TestBoundedHeap pins bounded memory: 10^4 small jobs, a mix of LRU
// answers and runs that each publish a feed, leave the manager holding
// at most retainFinished finished jobs, and the live heap after 10^4
// jobs is within 1.2× (plus slack) of the heap after 2×10^3.
func TestBoundedHeap(t *testing.T) {
	var pool []Request
	for _, n := range []int{3, 4} {
		for _, pol := range []string{"central", "distributed", "synchronous"} {
			pool = append(pool, Request{Alg: "tokenring", N: n, Policy: pol})
			pool = append(pool, Request{Alg: "tokenring", N: n, Policy: pol, KMax: new(int)})
		}
	}
	m := NewManager(Config{Deps: Deps{Obs: obs.New()}, LRUSize: 8, FeedDepth: 256})
	defer m.Shutdown(context.Background())
	rng := rand.New(rand.NewPCG(1, 2))
	sources := map[string]int{}
	run := func(jobs int) {
		for i := 0; i < jobs; i++ {
			j, _, err := m.Submit(pool[rng.IntN(len(pool))])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Result(); err != nil {
				t.Fatal(err)
			}
			_, source, _, _ := j.Status()
			sources[source]++
		}
		if n := len(m.Jobs()); n > retainFinished {
			t.Fatalf("manager holds %d jobs with none in flight, want at most %d", n, retainFinished)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(2_000)
	h1 := heap()
	run(8_000)
	h2 := heap()
	if sources["lru"] == 0 || sources["run"] == 0 {
		t.Fatalf("answer sources %v, want both LRU answers and runs", sources)
	}
	if limit := h1 + h1/5 + 2<<20; h2 > limit {
		t.Errorf("live heap grew from %d B after 2000 jobs to %d B after 10000, above %d", h1, h2, limit)
	}
	t.Logf("sources %v, live heap %d B after 2000 jobs, %d B after 10000", sources, h1, h2)
}

// TestManagerJobsIgnoreRequestWorkers pins what a job's Request.Workers
// does under the manager: nothing. The job executes the request identity,
// which drops the field, so a job asking for one worker still explores
// on one worker per CPU (capped, as every pool is, at the state count).
func TestManagerJobsIgnoreRequestWorkers(t *testing.T) {
	var pool atomic.Int64
	m := NewManager(Config{Deps: Deps{Inspect: func(_ *Response, ts *statespace.Space) {
		pool.Store(int64(ts.PoolWorkers()))
	}}})
	defer m.Shutdown(context.Background())
	req := Request{Alg: "tokenring", N: 8, K: 3, Workers: 1}
	if _, err := submitWait(m, req); err != nil {
		t.Fatal(err)
	}
	if want := int64(min(runtime.NumCPU(), 6561)); pool.Load() != want {
		t.Fatalf("job with workers 1 explored on %d workers, want runtime.NumCPU() = %d", pool.Load(), want)
	}
}
