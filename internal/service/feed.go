// The per-job event feed: a bounded ring of sequence-numbered events
// published from the job's observer hook and consumed by any number of
// subscribers (the SSE handler). The ring keeps the most recent events,
// so a late subscriber replays what is still buffered and then follows
// live; sequence numbers make the gap observable instead of silent. The
// ring grows with what the job publishes, up to its depth, and shrinks
// to exactly its buffered tail when the job ends.
package service

import (
	"context"
	"encoding/json"
	"sync"
)

// Event is one published observability event.
type Event struct {
	// Seq is the 0-based publish index within the job, strictly
	// increasing. Subscribers resume with it.
	Seq int64 `json:"seq"`
	// Name is the obs event name (frontier.shell, sweep.radius, ...).
	Name string `json:"ev"`
	// Data is the event payload, already marshaled (so subscribers never
	// race the emitting job over a mutable payload).
	Data json.RawMessage `json:"data"`
}

// Feed is the ring. The zero value is not usable; newFeed constructs.
type Feed struct {
	mu     sync.Mutex
	buf    []Event // ring storage: grows by append to depth, then wraps
	depth  int     // ring capacity
	start  int     // index of the oldest buffered event
	next   int64   // seq of the next published event
	closed bool
	wake   chan struct{} // made by a waiting snapshot, closed by the next publish/close
}

// newFeed returns an empty feed of the given depth. The ring grows with
// what the job publishes, so a job that publishes little costs little.
func newFeed(depth int) *Feed {
	if depth <= 0 {
		depth = 256
	}
	return &Feed{depth: depth}
}

// Publish appends one event, evicting the oldest when full. Marshal
// failures drop the payload but keep the event (name and seq still
// stream). No-op after Close.
func (f *Feed) Publish(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte("null")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	ev := Event{Seq: f.next, Name: name, Data: data}
	f.next++
	if len(f.buf) < f.depth {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.start] = ev
		f.start = (f.start + 1) % len(f.buf)
	}
	f.wakeLocked()
}

// wakeLocked wakes every waiter, if any. Caller holds f.mu.
func (f *Feed) wakeLocked() {
	if f.wake != nil {
		close(f.wake)
		f.wake = nil
	}
}

// Close marks the feed complete (the job finished) and wakes every
// waiter. The buffered events stay replayable: Close moves them, in
// sequence order, into a slice of exactly their size.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	tail := make([]Event, len(f.buf))
	n := copy(tail, f.buf[f.start:])
	copy(tail[n:], f.buf[:f.start])
	f.buf, f.start = tail, 0
	f.wakeLocked()
}

// published returns how many events the feed has published, evicted ones
// included.
func (f *Feed) published() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// snapshot returns the buffered events with seq >= from, whether the
// feed is closed, and — when it found no events on an open feed — a
// channel the next publish or close closes.
func (f *Feed) snapshot(from int64) (evs []Event, closed bool, wake <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := int64(len(f.buf))
	// The buffered events are seq next-n .. next-1 in ring order.
	for i := max(from-(f.next-n), 0); i < n; i++ {
		evs = append(evs, f.buf[(int64(f.start)+i)%n])
	}
	if len(evs) == 0 && !f.closed && f.wake == nil {
		f.wake = make(chan struct{})
	}
	return evs, f.closed, f.wake
}

// Wait returns the buffered events with seq >= from, blocking until at
// least one exists, the feed closes, or ctx is done. closed reports
// whether the feed has completed (no further events will ever arrive);
// a ctx cancellation returns (nil, false).
func (f *Feed) Wait(ctx context.Context, from int64) (evs []Event, closed bool) {
	for {
		evs, closed, wake := f.snapshot(from)
		if len(evs) > 0 || closed {
			return evs, closed
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}
