// Wall-clock performance harness: the reproducible benchmark suite behind
// `shrimpbench -benchjson` and the committed BENCH_*.json baselines. Unlike
// everything else in this package — which measures *virtual* time and is
// exact — this file measures how fast the simulator itself runs on the
// host: ns/op, allocs/op, engine events/sec, and wall-clock per figure
// sweep and chaos cell. Wall-clock reads are confined here and marked, so
// the no-wallclock rule still guards every simulation path.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/lint"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
)

// BenchResult is one suite entry, mirroring `go test -bench -benchmem`
// plus the simulator-specific events/sec throughput figure.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// EventsPerOp is the number of engine events one op executes;
	// EventsPerSec is the simulator's headline throughput on this host.
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// WallMS is the total wall-clock time the measurement loop took.
	WallMS float64 `json:"wall_ms"`
}

// BenchReport is the BENCH_*.json document.
type BenchReport struct {
	Schema     string        `json:"schema"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
}

// measure runs op iters times and reports averages. op returns how many
// engine events it executed (0 if not meaningful). Iteration counts are
// fixed, not wall-clock-adaptive, so two suite runs do identical work.
func measure(name string, iters int, op func() int64) BenchResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:allow no-wallclock host-performance harness measures the simulator itself
	start := time.Now()
	var events int64
	for i := 0; i < iters; i++ {
		events += op()
	}
	//lint:allow no-wallclock host-performance harness measures the simulator itself
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	r := BenchResult{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
	}
	if events > 0 {
		r.EventsPerOp = float64(events) / float64(iters)
		if wall > 0 {
			r.EventsPerSec = float64(events) / wall.Seconds()
		}
	}
	return r
}

// countEvents runs fn on an env that attaches a replay-digest tracer to
// every world fn builds, and returns the total events executed.
func countEvents(fn func(e *env)) int64 {
	dt := sim.NewDigestTracer()
	e := &env{cfg: cluster.Config{Auto: dt}}
	defer e.close()
	fn(e)
	return dt.Events
}

// RunPerfSuite runs the full wall-clock suite. figIters is the ping-pong
// iteration count for the end-to-end figure entries (8 matches shrimpbench's
// default sweep).
func RunPerfSuite(figIters int) BenchReport {
	rep := BenchReport{Schema: "shrimp-bench/v1", GoMaxProcs: runtime.GOMAXPROCS(0)}
	add := func(r BenchResult) { rep.Results = append(rep.Results, r) }

	// --- event core ---
	const churn = 200_000
	add(measure("sim/event-churn", 4, func() int64 {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < churn; i++ {
			e.Post(time.Duration(i%64)*time.Microsecond, fn)
			if i%1024 == 1023 {
				e.RunAll()
			}
		}
		e.RunAll()
		return int64(e.EventsRun)
	}))
	add(measure("sim/event-fifo", 4, func() int64 {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < churn; i++ {
			e.Post(0, fn)
			if i%1024 == 1023 {
				e.RunAll()
			}
		}
		e.RunAll()
		return int64(e.EventsRun)
	}))
	add(measure("sim/timer-arm-cancel", 4, func() int64 {
		e := sim.NewEngine()
		fn := func() {}
		for i := 0; i < churn; i++ {
			e.Schedule(time.Millisecond, fn).Stop()
		}
		if e.QueueLen() != 0 {
			panic("canceled timers leaked")
		}
		return 0
	}))
	add(measure("sim/proc-pingpong", 2, func() int64 {
		// Turn-taking through a shared flag so no signal is ever lost.
		const rallies = 50_000
		e := sim.NewEngine()
		c := sim.NewCond(e)
		ball, done := 0, 0
		e.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < rallies; i++ {
				for ball != 0 {
					c.Wait(p)
				}
				ball = 1
				c.Broadcast()
			}
		})
		e.Spawn("pong", func(p *sim.Proc) {
			for done < rallies {
				for ball != 1 {
					c.Wait(p)
				}
				ball = 0
				done++
				c.Broadcast()
			}
		})
		e.RunAll()
		e.Shutdown()
		if done != rallies {
			panic("ping-pong stalled")
		}
		return int64(e.EventsRun)
	}))

	// --- memory bulk moves ---
	add(measure("mem/page-copy", 50_000, func() int64 {
		// One page DMA'd in and copied back out: the steady-state unit of
		// every transfer strategy.
		return memPageCopyOp()
	}))

	// --- end-to-end figures ---
	add(measure("fig3/e2e", 1, func() int64 {
		return countEvents(func(e *env) { fig3(e, figIters) })
	}))
	add(measure("fig5/e2e", 1, func() int64 {
		return countEvents(func(e *env) { fig5(e, figIters) })
	}))
	add(measure("figures/all", 1, func() int64 {
		return countEvents(func(e *env) {
			fig3(e, figIters)
			fig4(e, figIters)
			fig5(e, figIters)
			fig7(e, figIters)
			fig8(e, figIters)
		})
	}))
	add(measure("figures/all-parallel", 1, func() int64 {
		// Events are counted per worker inside the runner, so only
		// wall-clock is reported here.
		RunFiguresParallel(figIters, Workers())
		return 0
	}))

	// --- serving workload ---
	add(measure("app/serve", 1, func() int64 {
		return countEvents(func(e *env) {
			err := appServe(e, AppServeOpts{
				MeshX: 2, MeshY: 2,
				Sessions: 1 << 14,
				Rate:     2e6,
				Duration: 10 * time.Millisecond,
				Crash:    -1,
			}, nil)
			if err != nil {
				panic("app serve failed: " + err.Error())
			}
		})
	}))

	add(measure("app/partition-cell", 1, func() int64 {
		c := appPartitionCells()[1] // part-primary
		res := chaosCell{c.name, fault.Plan{Name: c.name}, false, chaosAppPartition(c)}.check(1)
		if !res.OK() {
			panic("partition cell failed: " + res.Detail)
		}
		return 0
	}))

	// --- chaos ---
	add(measure("chaos/cell", 1, func() int64 {
		plan := StandardChaosPlans()[1] // drop-1%
		res := chaosCell{"fig3", plan, true, scenarioRunner("fig3")}.check(1)
		if !res.OK() {
			panic("chaos cell failed: " + res.Detail)
		}
		return 0
	}))
	add(measure("chaos/soak", 1, func() int64 {
		if !ChaosOK(RunChaos(1, 1)) {
			panic("chaos soak failed")
		}
		return 0
	}))
	add(measure("chaos/soak-parallel", 1, func() int64 {
		if !ChaosOK(RunChaos(1, Workers())) {
			panic("chaos soak failed")
		}
		return 0
	}))

	// --- snapshot & warm pool ---
	snapPerfEntries(add)

	// --- big-mesh scaling ---
	// The smoke cells time the simulator itself (wall-clock, like every
	// other entry); the 64-node cells then record the *virtual* collective
	// times for both modes, so a regression in either the software
	// recursive doubling or the combining tree shows up in the baseline
	// diff even though both are deterministic.
	add(measure("meshscale/smoke", 1, func() int64 {
		if err := RunMeshScaleSmoke(); err != nil {
			panic("meshscale smoke failed: " + err.Error())
		}
		return 0
	}))
	for _, comb := range []bool{false, true} {
		comb := comb
		mode := "sw"
		if comb {
			mode = "comb"
		}
		row, _ := runMeshScaleOnce([]int{8, 8}, comb)
		add(BenchResult{
			Name:    "meshscale/64-gsync-" + mode + "-virtual",
			Iters:   1,
			NsPerOp: float64(row.Gsync.Nanoseconds()),
		})
		add(BenchResult{
			Name:    "meshscale/64-gdsum-" + mode + "-virtual",
			Iters:   1,
			NsPerOp: float64(row.Gdsum.Nanoseconds()),
		})
	}

	// --- static analysis ---
	// shrimplint runs on every `make check`, so its whole-repo wall-clock —
	// load + type-check + call graph + all nine analyzers, tests included —
	// is part of the edit-check loop and tracked like any other entry.
	// Skipped when the suite runs outside a module checkout.
	if root, err := lint.FindModuleRoot("."); err == nil {
		add(measure("lint/whole-repo", 1, func() int64 {
			pkgs, err := lint.LoadModuleTests(root, true)
			if err != nil {
				panic("lint load failed: " + err.Error())
			}
			if diags := lint.Run(pkgs, lint.All()); len(diags) != 0 {
				panic(fmt.Sprintf("lint reported %d findings during bench", len(diags)))
			}
			return 0
		}))
	}

	return rep
}

// memPageCopyOp is the mem/page-copy op body, split out so the suite entry
// stays readable.
var memPageBuf = make([]byte, hw.Page)

var memPageMem = func() *mem.Memory {
	return mem.New(sim.NewEngine(), 1<<20)
}()

func memPageCopyOp() int64 {
	memPageMem.WriteDMA(0, memPageBuf)
	memPageMem.ReadInto(0, memPageBuf)
	return 0
}

// CompareBenchReports diffs cur against base and returns human-readable
// warnings for entries whose ns/op regressed by more than tolerance
// (e.g. 0.2 = 20%). It is advisory — the CI gate prints, never fails;
// wall-clock on shared runners is too noisy for a hard threshold.
func CompareBenchReports(base, cur BenchReport, tolerance float64) []string {
	old := make(map[string]BenchResult, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	var warnings []string
	for _, r := range cur.Results {
		b, ok := old[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		if ratio > 1+tolerance {
			warnings = append(warnings, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx slower)",
				r.Name, r.NsPerOp, b.NsPerOp, ratio))
		}
	}
	return warnings
}

// BenchTable renders the report for terminals.
func BenchTable(rep BenchReport) string {
	out := fmt.Sprintf("BENCH — simulator wall-clock performance (GOMAXPROCS=%d)\n", rep.GoMaxProcs)
	out += fmt.Sprintf("%-24s %6s %14s %12s %14s %12s\n",
		"benchmark", "iters", "ns/op", "allocs/op", "events/sec", "wall(ms)")
	for _, r := range rep.Results {
		ev := "-"
		if r.EventsPerSec > 0 {
			ev = fmt.Sprintf("%.0f", r.EventsPerSec)
		}
		out += fmt.Sprintf("%-24s %6d %14.0f %12.1f %14s %12.2f\n",
			r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, ev, r.WallMS)
	}
	return out
}
