// Snapshot and warm-pool wall-clock entries: what checkpointing a wired
// world costs, what a copy-on-write clone costs, and — the headline — how
// a warm pool amortizes app-serve world setup. The app-serve world here is
// a 2x2 serving mesh plus its staged dataset: cold store pages DMA'd into
// every node's DRAM before the serving processes come up. A fresh boot
// re-pays the dataset staging for every world; the pool pays boot +
// staging + capture once and hands out CoW clones that share every staged
// page until first write. Unlike the rest of this package, which measures
// exact virtual time, everything here is host wall-clock; the reads are
// confined to measure and marked, so the no-wallclock rule still guards
// every simulation path.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/mem"
	"shrimp/internal/snap"
)

// appWorldDatasetPages is the modeled serving dataset: 1024 patterned
// pages per node (16 MB across the 2x2 serving mesh), staged high in DRAM,
// clear of the frame allocator's low range.
const appWorldDatasetPages = 1024

// appWorldBoot builds the app-serve world from scratch — boot the 2x2
// serving mesh and stage the dataset.
// This is the per-world cost the warm pool amortizes away.
func appWorldBoot() *cluster.Cluster {
	c := cluster.New(cluster.Config{MeshX: 2, MeshY: 2})
	stageAppDataset(c)
	return c
}

// stageAppDataset DMAs the dataset into the top of every node's DRAM. Each
// page carries a (node, page) header over a fixed fill so no two pages
// dedup and none is zero: capture and encode pay for the full dataset,
// exactly like a real preloaded store.
func stageAppDataset(c *cluster.Cluster) {
	page := make([]byte, hw.Page)
	for i := range page {
		page[i] = 0xA5
	}
	for ni, n := range c.Nodes {
		base := mem.PFN(n.M.Mem.Pages() - appWorldDatasetPages)
		for p := 0; p < appWorldDatasetPages; p++ {
			page[0] = byte(ni + 1)
			page[1] = byte(p)
			page[2] = byte(p >> 8)
			n.M.Mem.WriteDMA((base + mem.PFN(p)).Base(), page)
		}
	}
}

// mustCaptureAppWorld boots, stages, and checkpoints the app-serve world.
func mustCaptureAppWorld() *snap.World {
	boot := appWorldBoot()
	w, err := snap.Capture(boot)
	boot.Shutdown()
	if err != nil {
		panic("snap capture failed: " + err.Error())
	}
	return w
}

// PoolEntry is one fixed-iteration wall-clock measurement, in the shape
// of `go test -bench -benchmem`.
type PoolEntry struct {
	Name        string
	Iters       int
	NsPerOp     float64
	AllocsPerOp float64
	// WallMS is the total wall-clock time the measurement loop took.
	WallMS float64
}

// measure runs op iters times and reports averages. Iteration counts are
// fixed, not wall-clock-adaptive, so two suite runs do identical work.
func measure(name string, iters int, op func()) PoolEntry {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:allow no-wallclock host-performance harness measures the simulator itself
	start := time.Now()
	for i := 0; i < iters; i++ {
		op()
	}
	//lint:allow no-wallclock host-performance harness measures the simulator itself
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return PoolEntry{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
	}
}

// poolEntries measures the snapshot & warm-pool entries.
func poolEntries() []PoolEntry {
	world := mustCaptureAppWorld()
	var out []PoolEntry

	// Checkpoint cost: hash + intern every materialized page of a live
	// world into the content-addressed chunk store.
	live, err := world.Restore()
	if err != nil {
		panic("snap restore failed: " + err.Error())
	}
	out = append(out, measure("snap/capture", 2, func() {
		if _, err := snap.Capture(live); err != nil {
			panic("snap capture failed: " + err.Error())
		}
	}))
	live.Shutdown()

	// Serialization cost: the versioned, checksummed image of the world.
	out = append(out, measure("snap/encode", 1, func() {
		if len(world.Encode()) == 0 {
			panic("snap encode produced empty image")
		}
	}))

	// Clone cost: rebuild the recipe, verify parity, install state. The
	// dataset rides for free — InstallFrames retains sealed pages, it
	// never copies them.
	out = append(out, measure("snap/clone-cluster", 16, func() {
		c, err := world.Restore()
		if err != nil {
			panic("snap restore failed: " + err.Error())
		}
		c.Shutdown()
	}))

	// The 5x pair. Boot path: every world re-pays boot + dataset staging.
	out = append(out, measure("snap/app-world-boot", 8, func() {
		appWorldBoot().Shutdown()
	}))

	// Pool path: boot + staging + capture happen once, inside the measured
	// loop so the entry reports honest amortized per-world cost; every
	// iteration after that is a CoW clone out of the pool.
	var pool *snap.Pool
	out = append(out, measure("snap/app-world-pooled", 96, func() {
		if pool == nil {
			pool = snap.NewWorldPool(mustCaptureAppWorld(), snap.RestoreOptions{})
		}
		c, err := pool.Get()
		if err != nil {
			panic("pool get failed: " + err.Error())
		}
		pool.Discard(c)
	}))
	if pool != nil {
		pool.Close()
	}
	return out
}

// PoolReport is the `shrimpbench -pool` result: the snapshot entries, the
// boot-vs-pooled speedup they imply, and both elasticity scenario cells.
type PoolReport struct {
	GoMaxProcs int
	Results    []PoolEntry
	// BootNsPerWorld and PooledNsPerWorld restate the two app-world
	// entries; Speedup is their ratio — the pool-amortization headline.
	BootNsPerWorld   float64
	PooledNsPerWorld float64
	Speedup          float64
	Elastic          ElasticPoolResult
	Rolling          ElasticRollingResult
}

// RunPoolSuite runs the snapshot entries plus the elasticity cells.
func RunPoolSuite() PoolReport {
	rep := PoolReport{GoMaxProcs: runtime.GOMAXPROCS(0), Results: poolEntries()}
	for _, r := range rep.Results {
		switch r.Name {
		case "snap/app-world-boot":
			rep.BootNsPerWorld = r.NsPerOp
		case "snap/app-world-pooled":
			rep.PooledNsPerWorld = r.NsPerOp
		}
	}
	if rep.PooledNsPerWorld > 0 {
		rep.Speedup = rep.BootNsPerWorld / rep.PooledNsPerWorld
	}
	rep.Elastic = RunElasticPool()
	rep.Rolling = RunElasticRolling()
	return rep
}

// PoolTable renders the pool report for terminals.
func PoolTable(rep PoolReport) string {
	out := fmt.Sprintf("POOL — snapshot & warm-pool wall-clock (GOMAXPROCS=%d)\n", rep.GoMaxProcs)
	out += fmt.Sprintf("%-24s %6s %14s %12s %12s\n", "benchmark", "iters", "ns/op", "allocs/op", "wall(ms)")
	for _, r := range rep.Results {
		out += fmt.Sprintf("%-24s %6d %14.0f %12.1f %12.2f\n", r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.WallMS)
	}
	out += fmt.Sprintf(
		"\npool-amortized app-serve world setup: %.2fx cheaper than fresh boot (%.0f vs %.0f ns/world)\n\n",
		rep.Speedup, rep.PooledNsPerWorld, rep.BootNsPerWorld)
	out += ElasticTable(rep.Elastic, rep.Rolling)
	return out
}
