// Package fanout is the one bounded worker pool behind the batch engine's
// parallel stages: the bulk load's per-epoch fill (events.NewFrozen) and the
// query executor's device-partitioned generate stage (stream.Generator).
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run runs fn(worker, job) for jobs [0, n) on up to workers goroutines,
// pulling jobs from an atomic queue. The worker index is dense in
// [0, min(workers, n)) and identifies the calling goroutine, so callers can
// hand each worker private scratch state without locking. It propagates the
// first panic to the caller and returns once every job finished.
func Run(n, workers int, fn func(worker, job int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for job := 0; job < n; job++ {
			fn(0, job)
		}
		return
	}
	var next atomic.Int64
	var panicMu sync.Mutex
	var panicked any
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				job := int(next.Add(1)) - 1
				if job >= n {
					return
				}
				fn(w, job)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
