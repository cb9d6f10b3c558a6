// Big-mesh scaling study: the ROADMAP's 64 → 256 → 1024 node sweep over
// k-ary n-cube geometries, with in-network combining measured against the
// software recursive-doubling baseline. Every cell is one full cluster
// world: NX processes on every node run a point-to-point phase (corner to
// corner latency and bandwidth across the full diameter) and a collective
// phase (Gsync, Gdsum, Gather), with lazy connections so the O(N²) eager
// all-pairs setup never happens. Each cell runs twice under the replay
// digest; the two digests must be byte-identical, which is what makes the
// numbers in EXPERIMENTS.md reproducible claims rather than measurements.
//
// All times here are VIRTUAL: they come from the calibrated hardware model,
// not the host clock (the perfbench module times the simulator itself).
// Link contention is read from the mesh's "link.wait" histogram —
// how long packet headers sat queued behind other flows at a channel.
package bench

import (
	"fmt"
	"strings"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/mesh"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// MeshScaleRow is one (geometry, combining-mode) cell of the scaling study.
type MeshScaleRow struct {
	Dims      []int
	Nodes     int
	Combining bool

	// Point-to-point, corner to corner (node 0 to node N-1, the full
	// network diameter).
	P2PLatency time.Duration // one-way one-word latency
	P2PBandMBs float64       // large-message bandwidth
	P2PHops    int           // diameter in hops
	// Collectives, per operation, measured at node 0 over several reps.
	Gsync  time.Duration
	Gdsum  time.Duration
	Gather time.Duration

	// Link-contention histogram ("link.wait", virtual ns per queued
	// header) over the whole cell.
	WaitN            int64
	WaitP50, WaitP99 time.Duration
	WaitMax          time.Duration

	// Combining-engine counters (zero with combining off).
	CombMerged, CombDelivered int64

	// Replay digest of the cell (both runs matched) and the engine event
	// count of one run.
	Digest   string
	DigestOK bool
	Events   int64
}

// meshScaleReps is the per-phase repetition count. Small and fixed: every
// rep is exact virtual time, so reps only smooth out warm-up effects.
const meshScaleReps = 4

// runMeshScaleOnce runs one world and returns the measurements plus the
// replay digest.
func runMeshScaleOnce(dims []int, combining bool) (MeshScaleRow, uint64) {
	nodes := 1
	for _, d := range dims {
		nodes *= d
	}
	row := MeshScaleRow{Dims: dims, Nodes: nodes, Combining: combining}
	dt := sim.NewDigestTracer()
	tc := trace.New()
	// Histograms are what the study reads; per-packet channel spans at
	// 1024 nodes would be millions of entries.
	tc.MaxSpans = 4096
	c := cluster.New(cluster.Config{
		MeshDims:  dims,
		Combining: combining,
		// DRAM is demand-allocated; the bound just has to clear the
		// Gather root's N-1 lazily-built connection regions.
		MemBytes: 256 << 20,
		Trace:    tc,
		Auto:     dt,
	})
	defer c.Shutdown()
	row.P2PHops = len(c.Mesh.Route(0, mesh.NodeID(nodes-1))) // nodes on the path

	far := nodes - 1
	const bwBytes = 64 << 10
	for i := 0; i < nodes; i++ {
		i := i
		c.Spawn(i, "meshscale", func(p *kernel.Process) {
			x := nx.New(c, p, i, nodes, nx.Config{Lazy: true})
			x.Gsync() // rendezvous: everyone booted

			// --- point-to-point phase: corners only ---
			switch i {
			case 0:
				buf := p.Alloc(bwBytes, 8)
				// Untimed warm-up exchange: the first message pays the lazy
				// connection rendezvous, which would otherwise swamp the
				// per-hop latency the phase is measuring.
				x.Csend(5, buf, 8, far, 0)
				x.Crecv(6, buf, 8)
				t0 := p.P.Now()
				for k := 0; k < meshScaleReps; k++ {
					x.Csend(1, buf, 8, far, 0)
					x.Crecv(2, buf, 8)
				}
				row.P2PLatency = p.P.Now().Sub(t0) / (2 * meshScaleReps)
				t0 = p.P.Now()
				x.Csend(3, buf, bwBytes, far, 0)
				x.Crecv(4, buf, 8)
				if el := p.P.Now().Sub(t0); el > 0 {
					row.P2PBandMBs = float64(bwBytes) / el.Seconds() / 1e6
				}
			case far:
				buf := p.Alloc(bwBytes, 8)
				// Receive-before-send: in lazy mode the connection must be
				// up before node 0's first message can match.
				x.Connect(0)
				x.Crecv(5, buf, 8)
				x.Csend(6, buf, 8, 0, 0)
				for k := 0; k < meshScaleReps; k++ {
					x.Crecv(1, buf, 8)
					x.Csend(2, buf, 8, 0, 0)
				}
				x.Crecv(3, buf, bwBytes)
				x.Csend(4, buf, 8, 0, 0)
			}
			x.Gsync()

			// --- collective phase ---
			t0 := p.P.Now()
			for k := 0; k < meshScaleReps; k++ {
				x.Gsync()
			}
			if i == 0 {
				row.Gsync = p.P.Now().Sub(t0) / meshScaleReps
			}
			t0 = p.P.Now()
			for k := 0; k < meshScaleReps; k++ {
				x.Gdsum(1.0 / float64(i+1))
			}
			if i == 0 {
				row.Gdsum = p.P.Now().Sub(t0) / meshScaleReps
			}
			src := p.Alloc(8, 8)
			var dst kernel.VA
			if i == 0 {
				dst = p.Alloc(8*nodes, 8)
			}
			x.Gather(0, src, 8, dst) // warm-up: the root builds its connections
			t0 = p.P.Now()
			x.Gather(0, src, 8, dst)
			if i == 0 {
				row.Gather = p.P.Now().Sub(t0)
			}
			x.Gsync()
			x.Drain()
		})
	}
	c.Run()

	if h := tc.Hist("mesh", "link.wait"); h != nil {
		row.WaitN = h.N
		row.WaitP50 = time.Duration(h.Quantile(0.5))
		row.WaitP99 = time.Duration(h.Quantile(0.99))
		row.WaitMax = time.Duration(h.Max)
	}
	row.CombMerged, row.CombDelivered = c.Mesh.CombStats()
	row.Events = dt.Events
	return row, dt.Sum()
}

// RunMeshScale runs the scaling study over the given geometries, each with
// combining off and on, every cell twice under the replay digest.
func RunMeshScale(geometries [][]int) []MeshScaleRow {
	var rows []MeshScaleRow
	for _, dims := range geometries {
		for _, comb := range []bool{false, true} {
			row, d1 := runMeshScaleOnce(dims, comb)
			again, d2 := runMeshScaleOnce(dims, comb)
			row.Digest = sim.DigestString(d1)
			row.DigestOK = d1 == d2 && row.sameMeasurements(again)
			rows = append(rows, row)
		}
	}
	return rows
}

// sameMeasurements reports whether two runs of a cell measured identical
// virtual times — the digest should make this redundant, but the study
// asserts it directly so a digest-blind divergence cannot hide.
func (r MeshScaleRow) sameMeasurements(o MeshScaleRow) bool {
	return r.P2PLatency == o.P2PLatency && r.P2PBandMBs == o.P2PBandMBs &&
		r.Gsync == o.Gsync && r.Gdsum == o.Gdsum && r.Gather == o.Gather &&
		r.WaitN == o.WaitN
}

// DefaultMeshScaleGeometries is the headline 64 → 256 → 1024 sweep: square
// 2-D meshes while they stay reasonable, a 3-D cube at 1024 where the 2-D
// diameter (62 hops at 32x32) would swamp every number — the point of
// parameterizing the topology.
func DefaultMeshScaleGeometries() [][]int {
	return [][]int{{8, 8}, {16, 16}, {16, 8, 8}}
}

// MeshScaleTable renders the study.
func MeshScaleTable(rows []MeshScaleRow) string {
	var b strings.Builder
	b.WriteString("MESHSCALE — k-ary n-cube scaling, in-network combining vs software collectives\n")
	b.WriteString(fmt.Sprintf("%-10s %6s %5s %9s %9s %10s %10s %10s %8s %8s %8s %6s\n",
		"dims", "nodes", "comb", "p2p-lat", "p2p-MB/s", "gsync", "gdsum", "gather",
		"waitp50", "waitp99", "merges", "digest"))
	for _, r := range rows {
		comb := "sw"
		if r.Combining {
			comb = "on"
		}
		dig := "MISMATCH"
		if r.DigestOK {
			dig = "ok"
		}
		b.WriteString(fmt.Sprintf("%-10s %6d %5s %8.2fus %9.1f %8.1fus %8.1fus %8.1fus %7.2fus %7.2fus %8d %6s\n",
			dimsLabel(r.Dims), r.Nodes, comb,
			r.P2PLatency.Seconds()*1e6, r.P2PBandMBs,
			r.Gsync.Seconds()*1e6, r.Gdsum.Seconds()*1e6, r.Gather.Seconds()*1e6,
			r.WaitP50.Seconds()*1e6, r.WaitP99.Seconds()*1e6,
			r.CombMerged, dig))
	}
	return b.String()
}

func dimsLabel(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

// MeshScaleOK reports whether every cell replayed byte-identically and, at
// 256 nodes and above, combining beat the software path on both barrier and
// global-sum time — the study's acceptance bar.
func MeshScaleOK(rows []MeshScaleRow) error {
	byKey := make(map[string]MeshScaleRow)
	for _, r := range rows {
		if !r.DigestOK {
			return fmt.Errorf("meshscale %s comb=%v: replay digests diverged", dimsLabel(r.Dims), r.Combining)
		}
		key := dimsLabel(r.Dims)
		if r.Combining {
			sw, ok := byKey[key]
			if ok && r.Nodes >= 256 {
				if r.Gsync >= sw.Gsync || r.Gdsum >= sw.Gdsum {
					return fmt.Errorf("meshscale %s: combining (gsync %v, gdsum %v) not faster than software (gsync %v, gdsum %v)",
						key, r.Gsync, r.Gdsum, sw.Gsync, sw.Gdsum)
				}
			}
		} else {
			byKey[key] = r
		}
	}
	return nil
}

// RunMeshScaleSmoke is the `make meshscale-smoke` body: tiny geometries,
// combining off and on, digest-stable — fast enough for every `make check`.
func RunMeshScaleSmoke() error {
	rows := RunMeshScale([][]int{{2, 2}, {2, 2, 2}})
	for _, r := range rows {
		if !r.DigestOK {
			return fmt.Errorf("meshscale smoke %s comb=%v: replay digests diverged", dimsLabel(r.Dims), r.Combining)
		}
		if r.Combining && (r.CombMerged == 0 || r.CombDelivered == 0) {
			return fmt.Errorf("meshscale smoke %s: combining enabled but never merged", dimsLabel(r.Dims))
		}
	}
	return nil
}
