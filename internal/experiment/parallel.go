package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runCells executes fn(0), …, fn(n-1) on a bounded worker pool. Each cell
// of a figure or sweep owns its dispatcher, caches, and cursors and is
// side-effect-free, so cells are embarrassingly parallel; results are
// written into caller-owned slots indexed by cell, which keeps the
// assembled output deterministic regardless of completion order. The
// returned error is the first failing cell in cell order.
//
// workers ≤ 0 uses GOMAXPROCS; workers == 1 (or n == 1) runs inline.
func runCells(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					// Stop claiming new cells; in-flight cells finish.
					failed.Store(true)
				}
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
