package statespace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cover records the ranges ForRanges hands out and checks that they tile
// [0, total) with chunks of grain indexes.
type cover struct {
	mu     sync.Mutex
	ranges map[int]int // lo -> hi
}

func (c *cover) add(lo, hi int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ranges == nil {
		c.ranges = map[int]int{}
	}
	c.ranges[lo] = hi
}

func (c *cover) check(t *testing.T, total, grain int) {
	t.Helper()
	want := (total + grain - 1) / grain
	if len(c.ranges) != want {
		t.Fatalf("total %d grain %d: %d chunks ran, want %d", total, grain, len(c.ranges), want)
	}
	for lo := 0; lo < total; lo += grain {
		if hi, ok := c.ranges[lo]; !ok || hi != min(lo+grain, total) {
			t.Fatalf("total %d grain %d: chunk at %d = [%d,%d), want [%d,%d)", total, grain, lo, lo, hi, lo, min(lo+grain, total))
		}
	}
}

// TestForRangesCoversEveryChunk pins the split: every chunk of grain
// indexes runs exactly once, with the last one shorter, whether the pool
// has fewer workers than chunks, more, or one.
func TestForRangesCoversEveryChunk(t *testing.T) {
	for _, tc := range []struct{ total, workers, grain int }{
		{10, 3, 3},   // short last chunk
		{4, 16, 1},   // workers > chunks
		{5, 8, 100},  // one chunk
		{100, 1, 7},  // inline
		{7, 0, 0},    // NumCPU workers, grain clamped to 1
		{1000, 4, 1}, // many chunks
	} {
		var c cover
		err := ForRanges(tc.total, tc.workers, tc.grain, func(lo, hi int) error {
			c.add(lo, hi)
			return nil
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		c.check(t, tc.total, max(tc.grain, 1))
	}
}

// TestForRangesEmpty pins that an empty range runs nothing.
func TestForRangesEmpty(t *testing.T) {
	for _, total := range []int{0, -3} {
		err := ForRanges(total, 4, 1, func(lo, hi int) error {
			t.Fatalf("total %d: fn ran on [%d,%d)", total, lo, hi)
			return nil
		})
		if err != nil {
			t.Fatalf("total %d: %v", total, err)
		}
	}
}

// TestForRangesInlineOrder pins the inline path: one worker runs the
// chunks on the caller in order, and an error stops at its chunk.
func TestForRangesInlineOrder(t *testing.T) {
	var los []int
	stop := errors.New("stop")
	err := ForRanges(10, 1, 2, func(lo, hi int) error {
		los = append(los, lo)
		if lo == 4 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	if fmt.Sprint(los) != "[0 2 4]" {
		t.Fatalf("inline chunks ran at %v, want [0 2 4]", los)
	}
}

// TestForRangesFirstError pins the error contract on the pool: the error
// of the failing chunk is returned, and chunks not yet claimed never run.
// The chunks claimed beside chunk 0 wait until well after it has failed,
// so no worker finds an unclaimed chunk before the stop.
func TestForRangesFirstError(t *testing.T) {
	const workers, chunks = 4, 1000
	var ran atomic.Int64
	gate := make(chan struct{})
	want := errors.New("chunk 0 failed")
	err := ForRanges(chunks, workers, 1, func(lo, _ int) error {
		ran.Add(1)
		if lo == 0 {
			time.AfterFunc(20*time.Millisecond, func() { close(gate) })
			return want
		}
		<-gate
		return nil
	})
	if err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if n := ran.Load(); n > workers {
		t.Fatalf("%d of %d chunks ran; want at most the %d claimed before the error", n, chunks, workers)
	}
}

// panicAt panics in chunk k; its name is what the re-raised value must
// carry.
func panicAt(k, lo int) {
	if lo == k {
		panic(fmt.Sprintf("chunk %d exploded", k))
	}
}

// TestForRangesPanicCarriesWorkerStack pins the panic contract: a panic in
// chunk k is re-raised on the caller, and its value carries both the
// original value and the panicking worker's stack, which names the
// panicking function's frame.
func TestForRangesPanicCarriesWorkerStack(t *testing.T) {
	const k = 5
	var got any
	func() {
		defer func() { got = recover() }()
		ForRanges(64, 4, 1, func(lo, _ int) error {
			panicAt(k, lo)
			return nil
		})
	}()
	if got == nil {
		t.Fatal("panic in a worker was not re-raised on the caller")
	}
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "chunk 5 exploded") {
		t.Fatalf("re-raised value lost the original: %q", msg)
	}
	if !strings.Contains(msg, "statespace.panicAt(") {
		t.Fatalf("re-raised value does not name the panicking frame:\n%s", msg)
	}
}
