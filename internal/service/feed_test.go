package service

// Feed-ring semantics: bounded eviction keeps the newest events with
// their original sequence numbers, Wait blocks until a publish or close,
// and resume-from-seq replays exactly the still-buffered suffix.

import (
	"context"
	"reflect"
	"testing"
	"time"
)

func TestFeedRingEvictsOldest(t *testing.T) {
	f := newFeed(4)
	for i := 0; i < 6; i++ {
		f.Publish("ev", map[string]int{"i": i})
	}
	evs, closed, _ := f.snapshot(0)
	if closed {
		t.Fatal("feed reported closed before Close")
	}
	if len(evs) != 4 {
		t.Fatalf("ring of 4 holds %d events after 6 publishes", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.Seq != want {
			t.Errorf("event %d has seq %d, want %d (oldest two evicted)", i, ev.Seq, want)
		}
	}

	// Resume from a seq inside the buffer replays only the suffix.
	evs, _, _ = f.snapshot(4)
	if len(evs) != 2 || evs[0].Seq != 4 {
		t.Fatalf("snapshot(4) = %d events starting at %d, want 2 starting at 4", len(evs), evs[0].Seq)
	}
}

func TestFeedWaitWakesOnPublishAndClose(t *testing.T) {
	f := newFeed(4)
	got := make(chan []Event, 1)
	go func() {
		evs, _ := f.Wait(context.Background(), 0)
		got <- evs
	}()
	// The waiter must not return before the publish.
	select {
	case evs := <-got:
		t.Fatalf("Wait returned %d events before any publish", len(evs))
	case <-time.After(10 * time.Millisecond):
	}
	f.Publish("ev", 1)
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].Name != "ev" {
			t.Fatalf("Wait returned %v, want the one published event", evs)
		}
	case <-time.After(time.Second):
		t.Fatal("Wait did not wake on publish")
	}

	// After Close, Wait past the end returns (nil, closed=true) at once.
	f.Close()
	evs, closed := f.Wait(context.Background(), 1)
	if !closed || len(evs) != 0 {
		t.Fatalf("Wait past end after Close = (%d events, closed=%t), want (0, true)", len(evs), closed)
	}

	// Publishing after Close is a no-op.
	f.Publish("ev", 2)
	if evs, _, _ := f.snapshot(0); len(evs) != 1 {
		t.Fatalf("publish after Close buffered an event (%d total)", len(evs))
	}
}

func TestFeedWaitCtxCancel(t *testing.T) {
	f := newFeed(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		evs, closed := f.Wait(ctx, 0)
		if evs != nil || closed {
			t.Errorf("canceled Wait = (%v, %t), want (nil, false)", evs, closed)
		}
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait did not return on ctx cancel")
	}
}

// TestFeedGrowsOnDemand pins that a feed holds no ring until it
// publishes, and that its ring grows only to what was published.
func TestFeedGrowsOnDemand(t *testing.T) {
	f := newFeed(256)
	if f.buf != nil {
		t.Fatalf("new feed holds a ring of capacity %d, want none", cap(f.buf))
	}
	for i := 0; i < 3; i++ {
		f.Publish("ev", i)
	}
	if len(f.buf) != 3 || cap(f.buf) >= 256 {
		t.Fatalf("after 3 publishes the ring is len %d cap %d, want len 3 well under the depth", len(f.buf), cap(f.buf))
	}
}

// TestFeedCloseKeepsReplay pins that Close, which shrinks the ring to
// its buffered tail, changes no replay: for every cursor, Wait after
// Close returns the events a snapshot returned before it, including a
// wrapped ring's visible id gap.
func TestFeedCloseKeepsReplay(t *testing.T) {
	for _, published := range []int{0, 3, 5, 6, 13} {
		f := newFeed(5)
		for i := 0; i < published; i++ {
			f.Publish("ev", i)
		}
		before := make([][]Event, published+2)
		for from := range before {
			before[from], _, _ = f.snapshot(int64(from))
			if from < published {
				evs, closed := f.Wait(context.Background(), int64(from))
				if closed || !reflect.DeepEqual(evs, before[from]) {
					t.Fatalf("published %d: open Wait(%d) = %v (closed %t), snapshot %v", published, from, evs, closed, before[from])
				}
			}
		}
		f.Close()
		if len(f.buf) != cap(f.buf) || len(f.buf) != min(published, 5) {
			t.Errorf("published %d: closed ring is len %d cap %d, want exactly %d", published, len(f.buf), cap(f.buf), min(published, 5))
		}
		for from, want := range before {
			evs, closed := f.Wait(context.Background(), int64(from))
			if !closed {
				t.Fatalf("published %d: Wait(%d) after Close reports open", published, from)
			}
			if len(evs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(evs, want)) {
				t.Errorf("published %d: Wait(%d) after Close = %v, before Close %v", published, from, evs, want)
			}
		}
		if published > 5 {
			if evs, _ := f.Wait(context.Background(), 0); evs[0].Seq != int64(published-5) {
				t.Errorf("published %d: replay from 0 starts at seq %d, want %d (the gap stays visible)", published, evs[0].Seq, published-5)
			}
		}
		if got := f.published(); got != int64(published) {
			t.Errorf("published() = %d, want %d", got, published)
		}
	}
}
