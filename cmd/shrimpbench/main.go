// Command shrimpbench regenerates every table and figure in the paper's
// evaluation (Sections 3.4–5) on the simulated SHRIMP multicomputer:
//
//	fig3    — raw VMMC latency/bandwidth (4 transfer strategies)
//	fig4    — NX message passing (5 protocol variants + adaptive default)
//	fig5    — SunRPC-compatible VRPC (DU-1copy, AU-1copy)
//	fig7    — stream sockets (AU-2copy, DU-1copy, DU-2copy)
//	fig8    — compatible vs non-compatible RPC (INOUT argument sweep)
//	peak    — the Section 3.4 headline numbers
//	ttcp    — the Section 4.3 ttcp results
//	rpcbase — VRPC vs the conventional-network (Ethernet) SunRPC baseline
//	ablate  — ablations of the Section 6 design decisions (combining,
//	          polling vs notifications, software multicast, 16-node scaling)
//
// Usage:
//
//	shrimpbench [-fig all|fig3|fig4|fig5|fig7|fig8|peak|ttcp|rpcbase]
//	            [-iters N] [-csv dir] [-parallel N]
//	shrimpbench -fig fig3 [-trace out.json] [-stats]
//	shrimpbench -svm [-trace out.json] [-stats]
//	shrimpbench -app [-trace out.json] [-stats]
//	shrimpbench -partition [-faultseed N]
//	shrimpbench -faults [-faultseed N] [-parallel N]
//	shrimpbench -pool
//	shrimpbench -meshscale | -meshsmoke
//
// -parallel N runs the selected figure sweeps (or chaos cells) on N
// worker threads. Every simulation still executes single-threaded on its
// own engine; tables, CSVs, and replay digests are byte-identical to a
// sequential run — only the wall-clock changes.
//
// The simulator's own host cost is measured elsewhere: the perfbench
// module (bash perfbench/run.sh) for end-to-end and per-layer numbers, and
// `make bench` for the Go microbenchmarks.
//
// -meshscale runs the big-mesh scaling study: 64, 256, and 1024 nodes on
// k-ary n-cube geometries, with in-network combining off and on, reporting
// corner-to-corner latency/bandwidth, collective times, and link-contention
// quantiles. Every cell runs twice and its replay digests must be
// byte-identical; at 256+ nodes combining must beat the software
// collectives. -meshsmoke is the tiny `make check` variant.
//
// -svm runs the shared-virtual-memory comparison: the same 1-D Jacobi
// stencil over NX message passing and over internal/svm release-consistent
// shared memory, at 2, 4, and 8 nodes, reporting per-sweep virtual time
// side by side. With -trace or -stats it instead runs the representative
// traced SVM scenario (Jacobi plus a lock-counter phase).
//
// -app runs the sharded-KV serving workload: first the offered-load ramp
// behind the EXPERIMENTS.md capacity table (4 nodes, throughput and served
// quantiles vs load through saturation), then the acceptance scenario — a
// million deterministic client sessions over 8 nodes with a non-gateway
// primary crashed, restarted, and resynced mid-load, run twice under the
// replay digest, reporting p50/p99/p999 per op class and the measured
// recovery time. With -trace or -stats it instead runs the representative
// traced serving scenario.
//
// -partition runs the partition-tolerance cells standalone: a two-node
// minority group, an isolated primary, an asymmetric (outbound-only) cut,
// and a flapping link, each severed and healed mid-load through the fault
// injector. The table reports failovers, epoch-fence rejections,
// quorum-vetoed down-reports, re-verified acknowledged writes, and the
// measured recovery time; every cell runs twice under the replay digest.
//
// -pool runs the snapshot & warm-pool suite: wall-clock entries for
// capture, encode, and copy-on-write cloning, the boot-vs-pooled app-serve
// world-setup comparison (the pool must amortize setup at least 5x below a
// fresh boot), and the two elasticity scenarios — the autoscale demand
// trace and rolling restarts served from snapshot clones. Exits non-zero
// if an elasticity cell fails or the 5x bar is missed.
//
// -faults runs the chaos soak matrix instead: every figure scenario under a
// set of seeded fault plans (lossy links with the retransmission sublayer
// on, NIC fault storms, a mid-transfer node crash), checking termination,
// data integrity, and replay-stable digests, plus the degraded-mode Fig 5
// throughput table. Exits non-zero if any cell fails.
//
// With -trace or -stats, shrimpbench runs ONE representative scenario of the
// selected figure with the observability layer attached: -trace writes a
// Chrome trace-event JSON file (load it in Perfetto / chrome://tracing) and
// -stats prints the span/counter/histogram summary. Traces are deterministic:
// two runs of the same scenario produce byte-identical files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"shrimp/internal/bench"
	"shrimp/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which experiment to run")
	iters := flag.Int("iters", 8, "ping-pong iterations per point")
	csvDir := flag.String("csv", "", "also write CSV files into this directory")
	tracePath := flag.String("trace", "", "write a Chrome trace of one representative -fig scenario to this file")
	stats := flag.Bool("stats", false, "print the trace summary of one representative -fig scenario")
	faults := flag.Bool("faults", false, "run the chaos soak matrix (figure scenarios x fault plans)")
	faultSeed := flag.Int64("faultseed", 1, "fault injector seed for -faults")
	svmFlag := flag.Bool("svm", false, "run the SVM-vs-NX Jacobi comparison (2/4/8 nodes)")
	appFlag := flag.Bool("app", false, "run the sharded-KV serving workload (capacity ramp + 1M-session acceptance scenario)")
	partFlag := flag.Bool("partition", false, "run the partition cells (minority group, isolated primary, asymmetric cut, flapping link) with fencing counters")
	poolFlag := flag.Bool("pool", false, "run the snapshot & warm-pool suite (capture/clone wall-clock, boot-vs-pooled world setup, elasticity scenarios)")
	meshScale := flag.Bool("meshscale", false, "run the big-mesh scaling study (64/256/1024 nodes, combining off/on, digest-checked)")
	meshSmoke := flag.Bool("meshsmoke", false, "run the tiny meshscale smoke cells (for make check)")
	parallel := flag.Int("parallel", 0, "run independent figure/chaos scenarios on N workers (0 = sequential; results are byte-identical either way)")
	flag.Parse()

	if *meshScale {
		rows := bench.RunMeshScale(bench.DefaultMeshScaleGeometries())
		fmt.Print(bench.MeshScaleTable(rows))
		if err := bench.MeshScaleOK(rows); err != nil {
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *meshSmoke {
		if err := bench.RunMeshScaleSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("meshscale smoke: ok")
		return
	}

	if *poolFlag {
		rep := bench.RunPoolSuite()
		fmt.Print(bench.PoolTable(rep))
		if !rep.Elastic.OK() || !rep.Rolling.OK() {
			fmt.Fprintln(os.Stderr, "shrimpbench: elasticity scenarios FAILED")
			os.Exit(1)
		}
		if rep.Speedup < 5 {
			fmt.Fprintf(os.Stderr, "shrimpbench: pool amortization %.2fx below the 5x bar\n", rep.Speedup)
			os.Exit(1)
		}
		return
	}

	if *partFlag {
		rows, err := bench.RunAppPartition(*faultSeed)
		if err != nil {
			fmt.Print(bench.AppPartitionTable(rows))
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.AppPartitionTable(rows))
		return
	}

	if *appFlag && *tracePath == "" && !*stats {
		rows, err := bench.AppRamp([]float64{5e5, 1e6, 2e6, 4e6, 8e6})
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.AppRampTable(rows))
		fmt.Println()
		res, err := bench.RunAppServe(bench.AcceptanceAppOpts())
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.AppServeTable(res))
		return
	}
	if *appFlag {
		*fig = "app"
	}

	if *svmFlag && *tracePath == "" && !*stats {
		const cells, sweeps = 256, 40
		rows := bench.JacobiCompare(cells, sweeps, []int{2, 4, 8})
		fmt.Print(bench.JacobiTable(rows, cells, sweeps))
		for _, r := range rows {
			if !r.Match {
				fmt.Fprintln(os.Stderr, "shrimpbench: SVM and NX results diverged")
				os.Exit(1)
			}
		}
		return
	}
	if *svmFlag {
		*fig = "svm"
	}

	if *faults {
		results := bench.RunChaos(*faultSeed, *parallel)
		fmt.Print(bench.ChaosTable(results))
		fmt.Println()
		points := bench.DegradedFig5(1024, 32, *faultSeed, []float64{0, 0.001, 0.01})
		fmt.Print(bench.DegradedTable(points, 1024))
		if !bench.ChaosOK(results) {
			fmt.Fprintln(os.Stderr, "shrimpbench: chaos soak FAILED")
			os.Exit(1)
		}
		return
	}

	if *tracePath != "" || *stats {
		tc := trace.New()
		desc, err := bench.TraceFigure(*fig, tc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(desc)
		if *tracePath != "" {
			if err := tc.WriteChromeTrace(*tracePath); err != nil {
				fmt.Fprintf(os.Stderr, "shrimpbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d spans, %d engine events)\n",
				*tracePath, len(tc.Spans()), tc.EngineEvents())
		}
		if *stats {
			fmt.Println()
			fmt.Print(tc.Summary())
		}
		return
	}

	run := func(name string) bool { return *fig == "all" || *fig == name }

	if run("peak") {
		r := bench.RunPeak()
		fmt.Println("PEAK — Section 3.4 headline numbers")
		fmt.Printf("  %-44s %8s %10s\n", "metric", "paper", "measured")
		fmt.Printf("  %-44s %8s %9.2fus\n", "AU one-word latency (write-through)", "4.75us", r.AUWordWTus)
		fmt.Printf("  %-44s %8s %9.2fus\n", "AU one-word latency (uncached)", "3.70us", r.AUWordUncachedUS)
		fmt.Printf("  %-44s %8s %9.2fus\n", "DU one-word latency", "7.60us", r.DUWordUS)
		fmt.Printf("  %-44s %8s %6.1fMB/s\n", "DU-0copy bandwidth at 10KB", "~23MB/s", r.DU0copyMBs)
		fmt.Printf("  %-44s %8s %6.1fMB/s\n", "AU-1copy bandwidth at 10KB", "<DU", r.AU1copyMBs)
		fmt.Println()
	}
	var ids []string
	for _, id := range []string{"fig3", "fig4", "fig5", "fig7", "fig8"} {
		if run(id) {
			ids = append(ids, id)
		}
	}
	for _, f := range bench.RunFigures(ids, *iters, *parallel) {
		if f.ID == "fig8" {
			// Figure 8 is a single latency plot over its own sweep.
			fmt.Print(f.LatencyTable(1 << 20))
		} else {
			fmt.Print(f.LatencyTable(64))
			fmt.Println()
			fmt.Print(f.BandwidthTable(64))
		}
		fmt.Println()
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, f.ID+".csv")
			if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}

	if run("ttcp") {
		r := bench.RunTTCP()
		fmt.Println("TTCP — Section 4.3")
		fmt.Printf("  %-40s %8s %9.2f MB/s\n", "ttcp, 7 Kbyte messages", "8.6", r.TTCP7K)
		fmt.Printf("  %-40s %8s %9.2f MB/s\n", "one-way microbenchmark, 7 Kbyte", "9.8", r.Micro7K)
		fmt.Printf("  %-40s %8s %9.2f MB/s\n", "ttcp, 70 byte messages", "1.3", r.TTCP70)
		fmt.Printf("  %-40s %8s %9.2f MB/s\n", "(Ethernet peak, for reference)", "1.25", r.EthernetPeak)
		fmt.Println()
	}
	if run("rpcbase") {
		r := bench.RunRPCBaseline()
		fmt.Println("RPCBASE — null RPC: VMMC stream vs conventional network")
		fmt.Printf("  %-40s %9.1f us\n", "VRPC over SBL (AU-1copy)", r.SBLNullUS)
		fmt.Printf("  %-40s %9.1f us\n", "SunRPC over 10Mb/s Ethernet", r.EtherNullUS)
		fmt.Printf("  %-40s %9.1fx\n", "speedup", r.Speedup)
		fmt.Println()
	}
	if run("ablate") {
		fmt.Println("ABLATE — design-decision ablations (paper Section 6)")
		for _, row := range bench.RunAblations() {
			note := ""
			if row.Note != "" {
				note = "  (" + row.Note + ")"
			}
			fmt.Printf("  %-44s %9.2f %s%s\n", row.Name, row.Value, row.Unit, note)
		}
		fmt.Println()
	}

	if !anyRan(*fig) {
		fmt.Fprintf(os.Stderr, "unknown figure %q; want one of all,fig3,fig4,fig5,fig7,fig8,peak,ttcp,rpcbase,ablate\n", *fig)
		os.Exit(2)
	}
}

func anyRan(fig string) bool {
	switch fig {
	case "all", "fig3", "fig4", "fig5", "fig7", "fig8", "peak", "ttcp", "rpcbase", "ablate":
		return true
	}
	return false
}
