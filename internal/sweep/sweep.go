// Package sweep is the concurrent design-space sweep orchestrator behind
// the Section 5 evaluation: a deterministic worker-pool executor over sets
// of (configuration, register file, cycle model) cells, a singleflight
// group deduplicating concurrent work on shared caches, and JSON, CSV and
// text export of the regenerated artifacts (see Artifact).
//
// The design space is embarrassingly parallel across cells — the only
// shared state is the memoized schedule cache — so the executor simply
// fans cells out over a bounded pool and reassembles results in submission
// order. Determinism is preserved by construction: every task writes only
// its own indexed slot, and the schedule cache (see perfcost) computes
// each unique cell exactly once regardless of arrival order.
package sweep

import (
	"runtime"
	"sync"
)

// Workers returns the default parallelism for sweep pools: one worker per
// CPU, floored at two so overlap-driven deduplication paths stay exercised
// even on a single-core host.
func Workers() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

// Each runs fn(i) for every i in [0, n) on a pool of at most workers
// goroutines and blocks until all calls return. Submission order is index
// order; callers regain determinism by writing results into slot i only.
// workers <= 0 selects Workers().
func Each(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Map evaluates fn over in on a bounded pool and returns the results in
// input order. workers <= 0 selects Workers().
func Map[T, R any](workers int, in []T, fn func(T) R) []R {
	out := make([]R, len(in))
	Each(workers, len(in), func(i int) {
		out[i] = fn(in[i])
	})
	return out
}
