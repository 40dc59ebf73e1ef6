// The structured event stream: one JSON object per line, each carrying
// the event name, the milliseconds since the sink started, and the
// event's flat payload fields. The payload types below are the shared
// schema every instrumented package emits — keeping them here means the
// progress renderer, the golden tests and external consumers agree on
// field names without import cycles.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// FrontierShell reports one BFS level of a frontier exploration
// (statespace.Builder / BuildFromContext): event "frontier.shell".
type FrontierShell struct {
	// Shell is the 0-based level index within this builder's lifetime.
	Shell int `json:"shell"`
	// Expanded is the number of states whose successor rows this shell
	// computed; New is how many previously unknown states they revealed.
	Expanded int `json:"expanded"`
	New      int `json:"new"`
	// States and Edges are the cumulative discovered totals.
	States int   `json:"states"`
	Edges  int64 `json:"edges"`
	// DedupRate is the fraction of this shell's successor references
	// that resolved to already-discovered states (0 when the shell
	// produced no references).
	DedupRate float64 `json:"dedup_rate"`
}

// BuildProgress reports full-range exploration progress
// (statespace.Build): event "build.progress", emitted at coarse state
// milestones from the worker pool (arrival order is scheduling-
// dependent; the cumulative counters are monotone).
type BuildProgress struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	Edges int64 `json:"edges"`
}

// SolverBlock reports one iteratively solved strongly connected block of
// the hitting-time condensation (markov.HittingTimes): event
// "solver.block". Singleton and dense blocks are aggregated into
// registry counters instead — they can number in the hundreds of
// thousands.
type SolverBlock struct {
	Size int `json:"size"`
	// Kind is "gs" (sequential Gauss–Seidel) or "gs-rb" (parallel
	// red-black).
	Kind string `json:"kind"`
	// Iters is the number of sweeps until the residual was confirmed.
	Iters int `json:"iters"`
	// Residual is the final confirmed max residual.
	Residual float64 `json:"residual"`
}

// SweepRadius reports one sealed radius of an incremental k-fault sweep
// (checker.SweepKFaultsContext): event "sweep.radius".
type SweepRadius struct {
	K        int  `json:"k"`
	Ball     int  `json:"ball"`
	Closure  int  `json:"closure"`
	Possible bool `json:"possible"`
	Certain  bool `json:"certain"`
	CacheHit bool `json:"cache_hit"`
}

// CacheEvent reports one space-cache operation (internal/spacecache):
// events "cache.hit", "cache.miss", "cache.store", "cache.evict".
type CacheEvent struct {
	// Kind is the entry kind: "space", "subspace" or "ball".
	Kind string `json:"kind"`
	Key  string `json:"key,omitempty"`
	// Mode is how a hit was materialized: "mmap" or "decode".
	Mode  string `json:"mode,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
}

// NetsimRound reports message-passing simulation progress
// (netsim.RunOnContext): event "netsim.round", emitted at legitimacy-check
// rounds whose index is a power of two (so long diverging runs log O(log
// rounds) events).
type NetsimRound struct {
	Trial     int   `json:"trial"`
	Round     int   `json:"round"`
	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
}

// NetsimTrial reports one completed trial of a batch (netsim.TrialsContext /
// Restabilization): event "netsim.trial".
type NetsimTrial struct {
	Trial int `json:"trial"`
	// Of is the batch size, so progress renderers can compute an ETA.
	Of        int   `json:"of"`
	Rounds    int   `json:"rounds"`
	Converged bool  `json:"converged"`
	Seed      int64 `json:"seed"`
}

// MCBatch reports one merged batch of a Monte Carlo hitting-time
// estimation (mc.Estimator): event "mc.batch". Batches are merged — and
// therefore emitted — in batch order, so the cumulative fields are
// monotone and the stream is deterministic for a fixed seed.
type MCBatch struct {
	// Batch is the 0-based index of the merged batch; Of is the total
	// batch count of the run (before any early stop).
	Batch int `json:"batch"`
	Of    int `json:"of"`
	// Trials and Hits are cumulative over the merged prefix.
	Trials int `json:"trials"`
	Hits   int `json:"hits"`
	// Mean and CI are the running mean hitting time and its 95%
	// confidence half-width over the merged prefix — the early-stopping
	// rule's own view.
	Mean float64 `json:"mean"`
	CI   float64 `json:"ci"`
	// Steps is the cumulative walker-step count.
	Steps int64 `json:"steps"`
}

// PhaseEvent reports a completed run phase: event "phase".
type PhaseEvent struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms,omitempty"`
}

// Sink writes the JSONL event stream: one line per event,
//
//	{"ev":"frontier.shell","t_ms":12.345,"shell":0,...}
//
// with the payload's fields inlined after the envelope in the payload
// struct's declaration order. Writes are mutex-serialized and buffered;
// Close flushes. The clock is injectable so golden tests are
// deterministic.
type Sink struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	c     io.Closer
	now   func() time.Time
	start time.Time
	err   error
}

// NewSink returns a sink writing to w. If w is an io.Closer, Close
// closes it after flushing.
func NewSink(w io.Writer) *Sink {
	s := &Sink{bw: bufio.NewWriter(w), now: time.Now}
	s.c, _ = w.(io.Closer)
	s.start = s.now()
	return s
}

// SetClock replaces the sink's time source (test hook; also resets the
// stream start to the new clock's current reading).
func (s *Sink) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
	s.start = now()
}

// Emit writes one event line. Marshal or write errors latch into the
// sink (returned by Close) and further emits become no-ops — tracing
// must never fail the analysis it observes.
func (s *Sink) Emit(name string, payload any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	body, err := json.Marshal(payload)
	if err != nil {
		s.err = fmt.Errorf("obs: marshaling %s event: %w", name, err)
		return
	}
	t := s.now().Sub(s.start).Seconds() * 1e3
	s.bw.WriteString(`{"ev":`)
	envName, _ := json.Marshal(name)
	s.bw.Write(envName)
	s.bw.WriteString(`,"t_ms":`)
	s.bw.WriteString(strconv.FormatFloat(t, 'f', 3, 64))
	// Inline the payload's own fields: strip its braces. "{}" (and
	// "null" for a nil payload) contribute no fields.
	if len(body) > 2 && body[0] == '{' {
		s.bw.WriteByte(',')
		s.bw.Write(body[1 : len(body)-1])
	}
	s.bw.WriteString("}\n")
	if err := s.bw.Flush(); err != nil {
		s.err = fmt.Errorf("obs: writing %s event: %w", name, err)
	}
}

// Close flushes the stream, closes the underlying writer when it is a
// Closer, and returns the first error the sink hit.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil && s.err == nil {
			s.err = err
		}
		s.bw = nil
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.c = nil
	}
	return s.err
}
