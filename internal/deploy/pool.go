package deploy

import (
	"fmt"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines; workers <= 0 means GOMAXPROCS. It returns when every
// call has finished. If any call fails, ForEach returns the
// lowest-index error with the index wrapped in; later indices still
// run to completion (a failed cell never cancels its siblings, so
// partial results stay deterministic).
//
// This is the one worker pool shared by the deployment runtime and the
// experiment sweeps, the chaos sweep among them. The determinism contract:
// fn(i) must touch only state owned by index i (each cell/run has its
// own sim.Engine and rng streams), results must be written to
// index-addressed slots, and every fold over those slots must happen
// after ForEach returns, in index order. Under that contract the
// worker count changes wall-clock time and nothing else — the
// parallel-vs-serial equivalence gates in deploy_test.go and CI hold
// the pool to it.
func ForEach(n, workers int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return firstError(errs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return firstError(errs)
}

// firstError folds the index-addressed error slots in index order, so
// the reported failure is the same for any worker count.
func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("index %d: %w", i, err)
		}
	}
	return nil
}
