// The job manager: bounded admission, a fixed worker pool, in-flight
// singleflight dedupe, an in-memory LRU of finished result documents
// over the disk cache, a fixed window of retained finished jobs, per-job
// cancellation and deadlines, and graceful drain. Every mutation of manager state happens under one mutex; the
// jobs themselves run on the pool with nothing shared but the (atomic)
// metrics registry and the content-addressed disk cache.
package service

import (
	"cmp"
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"weakstab/internal/obs"
)

// Submission errors.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity — backpressure, not an outage; retry later.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining rejects submissions after Shutdown began.
	ErrDraining = errors.New("service: manager is draining")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("service: no such job")
	// ErrRetired reports a job id the manager handed out but no longer
	// keeps: the job finished and retainFinished later jobs finished
	// after it. Resubmitting its request is cheap — the result LRU or the
	// disk cache answers it.
	ErrRetired = errors.New("service: job retired; resubmit its request for the answer")
	// ErrPanic fails a job whose execution panicked — an algorithm whose
	// guard or action panics, say. The panic is recovered at the job
	// boundary, so it fails that job alone; the error wraps the panic value
	// and the stack.
	ErrPanic = errors.New("service: job panicked")
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: Queued → Running → one of the three terminal states.
// An LRU-answered job is born Done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Config tunes a Manager.
type Config struct {
	// Deps are the shared execution dependencies. Deps.Obs also receives
	// the manager's own service.* metrics (nil falls back to the process
	// default observer).
	Deps Deps
	// Workers is the job worker-pool size (default 1): how many jobs run
	// at once. Each job's own pool is one worker per CPU (see Manager).
	Workers int
	// QueueDepth bounds the admission queue (default 16); submissions
	// beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// LRUSize bounds the in-memory result LRU (default 64 documents).
	LRUSize int
	// FeedDepth is the per-job event ring capacity; 0 disables per-job
	// feeds entirely (events flow to the process observer only, exactly
	// as if no manager were present).
	FeedDepth int
	// DefaultTimeout bounds each job's wall clock from submission when
	// the request carries no TimeoutMS (0 = unbounded).
	DefaultTimeout time.Duration
}

// retainFinished is how many terminal jobs the manager keeps for status,
// result and event queries. Older ones retire first-in first-out, so a
// long-running server holds bounded memory; queued and running jobs never
// retire.
const retainFinished = 1024

// Job is one submitted unit of work. Fields are owned by the manager;
// read them through the accessor methods, which lock.
type Job struct {
	// ID is the manager-scoped job identifier ("job-1", "job-2", ...).
	ID string
	// Key is the canonical dedupe identity (jobKey).
	Key string
	// Request is the normalized request identity.
	Request Request

	m      *Manager
	seq    int64 // the N of ID, the key of Manager.jobs
	state  State
	source string // "run" for an executed job, "lru" for a warm answer
	resp   *Response
	err    error
	feed   *Feed
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's current state, its answer source ("run" or
// "lru"), and — in a terminal state — its result or error.
func (j *Job) Status() (state State, source string, resp *Response, err error) {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.state, j.source, j.resp, j.err
}

// Result blocks until the job is terminal and returns its outcome.
func (j *Job) Result() (*Response, error) {
	<-j.done
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return j.resp, j.err
}

// Manager runs jobs. A job executes its request identity, which carries
// no Request.Workers, so every job's exploration and analyses run one
// worker per CPU (Execute's default), however many workers the request
// asked for; Config.Workers only sizes how many jobs run at once.
type Manager struct {
	cfg Config

	mu sync.Mutex
	// jobs holds every queued or running job and the retainFinished most
	// recently finished ones, by sequence number.
	jobs     map[int64]*Job
	finished []int64         // FIFO ring of retained terminal jobs' sequence numbers
	oldest   int             // index in finished of the next job to retire
	inflight map[string]*Job // queued/running jobs by Key (singleflight)
	lru      *resultLRU
	seq      int64 // the last job ID handed out
	running  int64 // jobs in StateRunning: the service.jobs.running gauge
	draining bool

	queue    chan *Job
	wg       sync.WaitGroup
	rootCtx  context.Context
	rootStop context.CancelFunc
}

// NewManager starts a manager with cfg's worker pool running.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.LRUSize <= 0 {
		cfg.LRUSize = 64
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		jobs:     make(map[int64]*Job),
		inflight: make(map[string]*Job),
		lru:      newResultLRU(cfg.LRUSize),
		queue:    make(chan *Job, cfg.QueueDepth),
		rootCtx:  ctx,
		rootStop: stop,
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// counter resolves a service metric handle on the shared registry.
func (m *Manager) counter(name string) *obs.Counter {
	return obs.Or(m.cfg.Deps.Obs).Counter(name)
}

func (m *Manager) gauge(name string) *obs.Gauge {
	return obs.Or(m.cfg.Deps.Obs).Gauge(name)
}

// Submit admits a request. The answer path, in order: the result LRU (a
// Done job carrying the cached document, deduped=true), the in-flight
// index (the identical queued/running job itself, deduped=true), or a
// fresh job on the admission queue. Build failures and invalid requests
// reject immediately; a full queue rejects with ErrQueueFull. A job ID is
// handed out only once the job is admitted.
func (m *Manager) Submit(req Request) (job *Job, deduped bool, err error) {
	id := req.identity()
	if err := id.validate(); err != nil {
		return nil, false, err
	}
	a, pol, err := m.cfg.Deps.build()(id)
	if err != nil {
		return nil, false, err
	}
	key := jobKey(id, a, pol)
	m.counter("service.jobs.submitted").Add(1)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, false, ErrDraining
	}
	if resp, ok := m.lru.get(key); ok {
		m.counter("service.lru.hit").Add(1)
		j := m.newJobLocked(key, id)
		j.state = StateDone
		j.source = "lru"
		j.resp = resp
		close(j.done)
		m.retainLocked(j)
		return j, true, nil
	}
	m.counter("service.lru.miss").Add(1)
	if j, ok := m.inflight[key]; ok {
		m.counter("service.jobs.deduped").Add(1)
		return j, true, nil
	}
	// Only Submit sends on the queue, under m.mu, so room now means the
	// send below cannot block.
	if len(m.queue) == cap(m.queue) {
		return nil, false, ErrQueueFull
	}

	j := m.newJobLocked(key, id)
	j.source = "run"
	timeout := m.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		// The deadline clock starts at admission, so queue wait counts
		// against it — a deadline is a promise about the answer, not
		// about the work.
		j.ctx, j.cancel = context.WithTimeout(m.rootCtx, timeout)
	} else {
		j.ctx, j.cancel = context.WithCancel(m.rootCtx)
	}
	if m.cfg.FeedDepth > 0 {
		j.feed = newFeed(m.cfg.FeedDepth)
	}
	m.queue <- j
	m.inflight[key] = j
	m.gauge("service.queue.depth").Set(int64(len(m.queue)))
	return j, false, nil
}

// newJobLocked allocates and registers a job under the next ID. Caller
// holds m.mu.
func (m *Manager) newJobLocked(key string, id Request) *Job {
	m.seq++
	j := &Job{
		ID:      "job-" + strconv.FormatInt(m.seq, 10),
		Key:     key,
		Request: id,
		m:       m,
		seq:     m.seq,
		state:   StateQueued,
		done:    make(chan struct{}),
	}
	m.jobs[j.seq] = j
	return j
}

// retainLocked enters a job that just turned terminal into the retention
// window and retires the oldest terminal job once more than
// retainFinished are kept. Caller holds m.mu.
func (m *Manager) retainLocked(j *Job) {
	if len(m.finished) < retainFinished {
		m.finished = append(m.finished, j.seq)
		return
	}
	delete(m.jobs, m.finished[m.oldest])
	m.finished[m.oldest] = j.seq
	m.oldest = (m.oldest + 1) % retainFinished
}

// Job returns a job by ID: ErrRetired for an ID the manager handed out
// but has retired, ErrNotFound for any other unknown ID.
func (m *Manager) Job(id string) (*Job, error) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil || n < 1 || id != "job-"+strconv.FormatInt(n, 10) {
		return nil, ErrNotFound
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[n]; ok {
		return j, nil
	}
	if n <= m.seq {
		return nil, ErrRetired
	}
	return nil, ErrNotFound
}

// Jobs returns the retained jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// cancelJob cancels a resolved job, which may have retired since. A queued
// job finishes canceled immediately (its worker slot was never taken); a
// running job's context propagates into the exploration, which stops at
// its next cooperative boundary and releases the slot. Cancelling a
// terminal job is a no-op.
func (m *Manager) cancelJob(j *Job) {
	m.mu.Lock()
	queued := j.state == StateQueued
	m.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	if queued {
		// The worker will skip it on dequeue; report it terminal now.
		m.finish(j, nil, context.Canceled)
	}
}

// Shutdown drains gracefully: no new submissions, queued and running
// jobs finish, workers exit. If ctx expires first, every outstanding
// job is canceled (cooperatively — bounded by a shell/radius/block) and
// Shutdown waits for the pool to come home before returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		m.rootStop() // cancels every job context
		<-idle
		return ctx.Err()
	}
}

// worker is one pool slot: take a job, run it, release.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.gauge("service.queue.depth").Set(int64(len(m.queue)))
		m.mu.Lock()
		skip := j.state != StateQueued // canceled while queued
		if !skip {
			j.state = StateRunning
			m.setRunningLocked(m.running + 1)
		}
		m.mu.Unlock()
		if skip {
			continue
		}
		resp, err := m.execute(j)
		m.finish(j, resp, err)
	}
}

// execute runs one job. A panic anywhere in it — including one that
// statespace.ForRanges re-raises from an exploration worker — becomes an
// ErrPanic failure of this job, so the worker, and every other in-flight
// job, goes on.
func (m *Manager) execute(j *Job) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.counter("service.jobs.panicked").Add(1)
			resp, err = nil, fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack())
		}
	}()
	return Execute(j.ctx, j.Request, m.jobDeps(j))
}

// setRunningLocked records the running-job count and publishes it on the
// gauge. Caller holds m.mu, so gauge updates land in transition order.
func (m *Manager) setRunningLocked(n int64) {
	m.running = n
	m.gauge("service.jobs.running").Set(n)
}

// jobDeps derives the job's execution dependencies: with feeds enabled,
// a per-job observer that shares the process metrics registry (so
// /metrics aggregates across jobs) but owns its hooks — one feeding the
// job's subscriber ring, one forwarding every event to the process
// observer's sink and hooks (the second obs sink of the job).
func (m *Manager) jobDeps(j *Job) Deps {
	deps := m.cfg.Deps
	if j.feed == nil {
		return deps
	}
	parent := obs.Or(deps.Obs)
	o := obs.NewWithRegistry(parent.Registry())
	o.AddHook(j.feed.Publish)
	if parent.On() {
		o.AddHook(parent.Emit)
	}
	deps.Obs = o
	return deps
}

// finish moves a job to its terminal state exactly once: classify the
// error (a wrapped context cancellation or deadline is "canceled", not
// "failed"), admit successful documents to the LRU, clear the in-flight
// index, enter the retention window, close the feed and wake waiters.
func (m *Manager) finish(j *Job, resp *Response, err error) {
	m.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		m.mu.Unlock()
		return
	}
	if j.state == StateRunning {
		m.setRunningLocked(m.running - 1)
	}
	switch {
	case err == nil:
		j.state = StateDone
		j.resp = resp
		m.lru.add(j.Key, resp)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err
	default:
		j.state = StateFailed
		j.resp = resp // may carry a partial document (hierarchy failure)
		j.err = err
	}
	if m.inflight[j.Key] == j {
		delete(m.inflight, j.Key)
	}
	m.retainLocked(j)
	state := j.state
	m.mu.Unlock()

	switch state {
	case StateDone:
		m.counter("service.jobs.completed").Add(1)
	case StateCanceled:
		m.counter("service.jobs.canceled").Add(1)
	default:
		m.counter("service.jobs.failed").Add(1)
	}
	if j.cancel != nil {
		j.cancel()
	}
	if j.feed != nil {
		j.feed.Close()
	}
	close(j.done)
}

// resultLRU is a key → *Response LRU over finished documents. Documents
// are immutable once published; hits hand out the shared pointer.
type resultLRU struct {
	cap   int
	order *list.List               // front = most recent
	byKey map[string]*list.Element // value: lruEntry
}

type lruEntry struct {
	key  string
	resp *Response
}

func newResultLRU(capacity int) *resultLRU {
	return &resultLRU{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

func (l *resultLRU) get(key string) (*Response, bool) {
	el, ok := l.byKey[key]
	if !ok {
		return nil, false
	}
	l.order.MoveToFront(el)
	return el.Value.(lruEntry).resp, true
}

func (l *resultLRU) add(key string, resp *Response) {
	if el, ok := l.byKey[key]; ok {
		el.Value = lruEntry{key: key, resp: resp}
		l.order.MoveToFront(el)
		return
	}
	l.byKey[key] = l.order.PushFront(lruEntry{key: key, resp: resp})
	for l.order.Len() > l.cap {
		el := l.order.Back()
		l.order.Remove(el)
		delete(l.byKey, el.Value.(lruEntry).key)
	}
}
