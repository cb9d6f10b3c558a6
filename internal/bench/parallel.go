// Worker-pool scenario runner: every figure and chaos cell is an
// independent, self-contained simulation (its own env, engine, cluster and
// tracers), so wall-clock throughput scales by running cells on OS threads
// in parallel. Determinism is untouched — each simulation still executes
// single-threaded on its own engine, workers share no simulation state,
// and results land in preassigned slots so output order never depends on
// scheduling. The workers=1 vs workers=4 byte-identity tests in
// parallel_test.go are the proof.
//
// This file is the one sanctioned island of host concurrency outside
// internal/sim, hence the per-line shrimplint suppressions.
package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// runPool executes job(0..n-1) on up to workers OS threads and waits for
// all of them. Jobs must be independent; they communicate results through
// their preassigned slots, never through shared simulation state.
func runPool(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next int64 = -1
	//lint:allow no-stray-concurrency worker-pool join
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow no-stray-concurrency worker-pool scenario runner
		go func() {
			defer wg.Done()
			for {
				//lint:allow no-stray-concurrency atomic job cursor
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// Workers returns the default worker count for parallel runs.
func Workers() int { return runtime.GOMAXPROCS(0) }

// RunFiguresParallel produces the five standard figures like running
// Fig3..Fig8 back to back, but on a worker pool. The returned slice is
// always ordered fig3, fig4, fig5, fig7, fig8, and every figure's tables
// and CSV are byte-identical to its sequential counterpart.
func RunFiguresParallel(iters, workers int) []*Figure {
	jobs := []func() *Figure{
		func() *Figure { return Fig3(iters) },
		func() *Figure { return Fig4(iters) },
		func() *Figure { return Fig5(iters) },
		func() *Figure { return Fig7(iters) },
		func() *Figure { return Fig8(iters) },
	}
	out := make([]*Figure, len(jobs))
	runPool(workers, len(jobs), func(i int) { out[i] = jobs[i]() })
	return out
}
