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
	"slices"
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

// standardFigures are the five figure sweeps, in output order.
var standardFigures = []struct {
	id    string
	build func(iters int) *Figure
}{{"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5}, {"fig7", Fig7}, {"fig8", Fig8}}

// RunFigures builds the standard figures (fig3, fig4, fig5, fig7, fig8)
// named in ids on up to workers OS threads; workers <= 1 builds them in
// order on the calling goroutine. The result keeps that fixed order
// whatever the order of ids, and every figure's tables and CSV are
// byte-identical whatever the worker count.
func RunFigures(ids []string, iters, workers int) []*Figure {
	var builds []func(int) *Figure
	for _, f := range standardFigures {
		if slices.Contains(ids, f.id) {
			builds = append(builds, f.build)
		}
	}
	out := make([]*Figure, len(builds))
	runPool(workers, len(builds), func(i int) { out[i] = builds[i](iters) })
	return out
}
