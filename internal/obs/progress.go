// The human progress renderer: an event hook that folds the structured
// stream into one live status line (rates, ETA where a total is known),
// overwritten in place on a TTY and throttled so rendering never costs
// more than the work it reports.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress renders events as a single updating status line on w
// (normally stderr). Attach with obs.Observer.AddHook(p.Handle) and call
// Done when the run finishes to terminate the line.
type Progress struct {
	mu     sync.Mutex
	w      io.Writer
	start  time.Time
	last   time.Time
	width  int
	closed bool
	minGap time.Duration
	now    func() time.Time
	states int64
	edges  int64
	rounds int64
}

// NewProgress returns a renderer writing to w, updating at most every
// 200ms (events between refreshes still fold into the counters).
func NewProgress(w io.Writer) *Progress {
	return &Progress{w: w, minGap: 200 * time.Millisecond, now: time.Now}
}

// Handle is the event hook: it folds the payload into the renderer's
// counters and refreshes the line if the throttle allows.
func (p *Progress) Handle(name string, payload any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if p.start.IsZero() {
		p.start = p.now()
	}
	var line string
	switch ev := payload.(type) {
	case FrontierShell:
		p.states = int64(ev.States)
		p.edges = ev.Edges
		line = fmt.Sprintf("shell %d: %s states, %s edges, dedup %.0f%%, %s states/s",
			ev.Shell, count(int64(ev.States)), count(ev.Edges), 100*ev.DedupRate, rate(p.states, p.elapsed()))
	case BuildProgress:
		p.states = ev.Done
		p.edges = ev.Edges
		line = fmt.Sprintf("build: %s/%s states (%.0f%%), %s states/s%s",
			count(ev.Done), count(ev.Total), pct(ev.Done, ev.Total),
			rate(ev.Done, p.elapsed()), eta(ev.Done, ev.Total, p.elapsed()))
	case SweepRadius:
		line = fmt.Sprintf("sweep k=%d: ball %s, closure %s, possible=%t certain=%t",
			ev.K, count(int64(ev.Ball)), count(int64(ev.Closure)), ev.Possible, ev.Certain)
	case SolverBlock:
		line = fmt.Sprintf("solver: %s block of %s states converged in %d sweeps (residual %.2e)",
			ev.Kind, count(int64(ev.Size)), ev.Iters, ev.Residual)
	case NetsimRound:
		p.rounds = int64(ev.Round)
		line = fmt.Sprintf("trial %d: round %s, %s msgs sent, %s delivered",
			ev.Trial, count(int64(ev.Round)), count(ev.Sent), count(ev.Delivered))
	case NetsimTrial:
		line = fmt.Sprintf("trial %d/%d: %s rounds%s%s",
			ev.Trial+1, ev.Of, count(int64(ev.Rounds)),
			map[bool]string{true: "", false: " (no convergence)"}[ev.Converged],
			eta(int64(ev.Trial+1), int64(ev.Of), p.elapsed()))
	case PhaseEvent:
		line = fmt.Sprintf("phase %s done in %s", ev.Name, durMS(ev.WallMS))
	default:
		return
	}
	if now := p.now(); now.Sub(p.last) >= p.minGap {
		p.render(line)
		p.last = now
	}
}

// Done terminates the status line (if one was drawn) with a newline and
// stops further rendering.
func (p *Progress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.width > 0 {
		fmt.Fprintln(p.w)
	}
}

func (p *Progress) elapsed() time.Duration { return p.now().Sub(p.start) }

// render redraws the status line in place, blank-padding when the new
// line is shorter than the previous one.
func (p *Progress) render(line string) {
	pad := ""
	if n := p.width - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
	p.width = len(line)
}

// count renders n with an SI suffix above 10k to keep the line narrow.
func count(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func pct(done, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(done) / float64(total)
}

func rate(n int64, d time.Duration) string {
	if d <= 0 {
		return "—"
	}
	return count(int64(float64(n) / d.Seconds()))
}

// eta projects time to completion from current throughput; empty when
// the projection is meaningless.
func eta(done, total int64, d time.Duration) string {
	if done <= 0 || total <= done || d <= 0 {
		return ""
	}
	left := time.Duration(float64(d) * float64(total-done) / float64(done))
	return fmt.Sprintf(", ETA %s", left.Round(time.Second))
}

func durMS(ms float64) string {
	return (time.Duration(ms * float64(time.Millisecond))).Round(time.Millisecond).String()
}
