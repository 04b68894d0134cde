// Package par provides a bounded, order-preserving fan-out helper for
// host-side parallelism. One simulated Machine keeps at most two cores
// busy: its cooperative scheduler runs one worker at a time, and a
// single-worker phase hands its accounting to a second goroutine (memsim's
// pipeline). Independent machines — one per experiment data point — can
// run on separate hardware cores; par is the worker pool that does so
// deterministically: results land in index-addressed slots, so the output
// order (and therefore every rendered table) is independent of the pool
// size.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the effective pool size for a requested parallelism:
// <= 0 selects runtime.NumCPU(); the result is clamped to [1, n].
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) on a pool of at most parallel
// workers (<= 0 means NumCPU) and returns the lowest-index error, so the
// reported failure is the same one a serial loop would hit first. fn must
// write its outputs to index-addressed slots.
func ForEach(n, parallel int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(parallel, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on a bounded pool and collects the
// results in index order.
func Map[T any](n, parallel int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, parallel, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
