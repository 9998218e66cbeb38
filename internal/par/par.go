// Package par is the shared worker-pool primitive under the parallel
// analysis layers (routing source fan-out, metric families, robustness
// trials, experiment replications). It is deliberately tiny: dynamic
// index claiming over a fixed goroutine count, first-panic propagation,
// and deterministic (lowest-index) error selection, so callers that
// reduce results in index order produce byte-identical output for any
// worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count for n independent work
// items: non-positive means GOMAXPROCS, and the result never exceeds n
// (or falls below 1).
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n), fanning the indices out
// across at most `workers` goroutines (<= 0 means GOMAXPROCS). Indices
// are claimed dynamically, so uneven item costs balance. A panic in any
// fn is re-raised in the caller after all workers stop.
func ForEach(workers, n int, fn func(i int)) {
	_ = ForEachErr(workers, n, func(i int) error {
		fn(i)
		return nil
	})
}

// ForEachErr is ForEach for fallible work. When one or more calls fail,
// the error of the lowest failing index is returned — a deterministic
// choice regardless of scheduling. Remaining indices are abandoned after
// the first observed failure (already-started calls finish).
func ForEachErr(workers, n int, fn func(i int) error) error {
	return ForEachWorkerErr(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorkerErr is ForEachErr for work that wants worker-local state:
// fn additionally receives the index w in [0, Workers(workers, n)) of
// the goroutine running it. Calls with the same w never overlap, so
// callers can reserve one scratch resource per worker — e.g. a pooled
// graph.Workspace grown once to the sweep's node count — and a
// million-node fan-out does zero steady-state allocation instead of one
// pool round-trip per item. Results must still be reduced by item
// index: which items share a worker is scheduling-dependent.
func ForEachWorkerErr(workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstI   = n
		firstE   error
		panicked any
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					mu.Lock()
					if i < firstI {
						firstI, firstE = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstE
}
