package statespace

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ForRanges splits [0, total) into contiguous chunks of grain indexes (the
// last chunk may be shorter) and runs fn over them on a pool of workers
// (0 means runtime.NumCPU()). Chunks are claimed dynamically, so uneven
// per-index costs stay balanced; with one worker, or one chunk, fn runs
// inline on the caller in chunk order.
//
// An error from fn stops further chunk claims (chunks already running
// finish) and the first error is returned. A panic in fn also stops the
// claims and is re-raised on the caller once the pool drains; its value
// is the original value followed by the panicking worker's stack, which
// the caller's own stack no longer contains.
//
// It is the only worker pool of the analysis: exploration (BuildContext,
// Builder.explore), the sharded dedup insert (Dedup.AddChunks), the seal's
// radix sort and row permutation, the fault ball's mutation shells and
// legitimacy seed scan, the reverse-CSR counting sort and backward BFS,
// row checks (markov.CheckRows), the hitting-time level
// chunks and red-black sweeps, the checker's side-by-side reverse-CSR
// and condensation passes, the Monte Carlo batches (mc.RunContext) and
// the netsim shard phases all run on it.
func ForRanges(total, workers, grain int, fn func(lo, hi int) error) error {
	if total <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if grain < 1 {
		grain = 1
	}
	numChunks := (total + grain - 1) / grain
	if workers > numChunks {
		workers = numChunks
	}
	if workers == 1 {
		for lo := 0; lo < total; lo += grain {
			if err := fn(lo, min(lo+grain, total)); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					stopped.Store(true)
					mu.Lock()
					if panicked == nil {
						panicked = fmt.Sprintf("%v\n\npanicking worker's stack:\n%s", r, debug.Stack())
					}
					mu.Unlock()
				}
			}()
			for !stopped.Load() {
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				lo := c * grain
				if err := fn(lo, min(lo+grain, total)); err != nil {
					stopped.Store(true)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}
