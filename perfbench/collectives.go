package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

const collectivesWhy = "the only big world: 256 nodes on a 16x16 mesh with lazy NX connects, software vs in-network-combining Gsync/Gdsum plus a Gather; per-node state, the connect storm and 30-hop routes"

// collDims is the collectives world: 256 nodes, a 30-hop diameter.
var collDims = []int{16, 16}

// collReps is how many timed Gsync and Gdsum calls each node makes.
const collReps = 4

// collCell is one world of the collectives workload, combining off or on.
type collCell struct {
	comb       bool
	setup, run float64 // host seconds: boot + rendezvous, then the rest
	boot       float64 // host seconds in cluster.New
	cl         *cluster.Cluster
	dt         *sim.DigestTracer

	lat               []int64 // every node's per-call latency, virtual ns
	gsync, gdsum      int64   // node 0 mean per call, virtual ns
	gather            int64   // node 0 timed Gather, virtual ns
	checked, mismatch int64
	errs              []string
}

// contribution is node i's seeded input to Gdsum call k: a multiple of
// 1/1024 below 1024, so every partial sum of 256 of them is exact in
// float64 and any summation order must give the sequential sum bit for
// bit.
func contribution(seed uint64, k, i int) float64 {
	return float64(splitmix64(seed^uint64(k)<<32^uint64(i))%(1<<20)) / 1024
}

// gatherWord is node i's 8-byte Gather block.
func gatherWord(seed uint64, i int) uint64 {
	return splitmix64(seed+uint64(i))&^0xffff | uint64(i)
}

// runCollCell boots the world, runs the rendezvous Gsync (set-up), then
// the timed collectives, and checks every result. The caller shuts the
// cluster down.
func runCollCell(seed uint64, comb bool, tc *trace.Collector) (*collCell, error) {
	n := 1
	for _, d := range collDims {
		n *= d
	}
	want := make([]float64, collReps)
	for k := range want {
		for i := 0; i < n; i++ {
			want[k] += contribution(seed, k, i)
		}
	}

	c := &collCell{comb: comb, dt: sim.NewDigestTracer()}
	t0 := hostNow()
	c.cl = cluster.New(cluster.Config{
		MeshDims:  collDims,
		Combining: comb,
		// DRAM is demand-allocated; the bound only has to clear the
		// Gather root's lazily built connection regions.
		MemBytes: 256 << 20,
		Trace:    tc,
		Auto:     c.dt,
	})
	c.boot = hostSince(t0)

	perNode := make([][]int64, n)
	got := make([][]float64, n)
	var rendezvous time.Time
	var layout []byte
	for i := 0; i < n; i++ {
		i := i
		c.cl.Spawn(i, "coll", func(p *kernel.Process) {
			x := nx.New(c.cl, p, i, n, nx.Config{Lazy: true})
			// Rendezvous, then one more barrier so the skew the lazy
			// connect storm leaves between nodes stays in set-up.
			x.Gsync()
			x.Gsync()
			if i == 0 {
				rendezvous = hostNow()
			}
			timed := func(f func()) int64 {
				t := p.P.Now()
				f()
				d := int64(p.P.Now().Sub(t))
				perNode[i] = append(perNode[i], d)
				return d
			}
			var gs, gd int64
			for k := 0; k < collReps; k++ {
				gs += timed(x.Gsync)
			}
			for k := 0; k < collReps; k++ {
				v := contribution(seed, k, i)
				gd += timed(func() { got[i] = append(got[i], x.Gdsum(v)) })
			}
			src := p.Alloc(8, 8)
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], gatherWord(seed, i))
			p.Poke(src, word[:])
			var dst kernel.VA
			if i == 0 {
				dst = p.Alloc(8*n, 8)
			}
			x.Gather(0, src, 8, dst) // warm: the tree builds its connections
			ga := timed(func() { x.Gather(0, src, 8, dst) })
			if i == 0 {
				c.gsync, c.gdsum, c.gather = gs/collReps, gd/collReps, ga
				layout = p.Peek(dst, 8*n)
			}
			x.Gsync()
			x.Drain()
		})
	}
	if _, err := c.cl.RunChecked(10 * time.Second); err != nil {
		c.cl.Shutdown()
		return nil, fmt.Errorf("collectives comb=%v: %w", comb, err)
	}
	end := hostNow()
	if rendezvous.IsZero() {
		c.cl.Shutdown()
		return nil, fmt.Errorf("collectives comb=%v: rendezvous never completed", comb)
	}
	c.setup = rendezvous.Sub(t0).Seconds()
	c.run = end.Sub(rendezvous).Seconds()

	for i := 0; i < n; i++ {
		c.lat = append(c.lat, perNode[i]...)
		for k := 0; k < collReps; k++ {
			c.checked++
			if k >= len(got[i]) || math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
				c.mismatch++
				if len(c.errs) < 4 {
					c.errs = append(c.errs, fmt.Sprintf("comb=%v node %d Gdsum %d: got %v, sequential sum %v", comb, i, k, got[i], want[k]))
				}
			}
		}
	}
	c.checked++
	if !gatherLayoutOK(seed, layout, n) {
		c.mismatch++
		c.errs = append(c.errs, fmt.Sprintf("comb=%v: Gather layout at the root is wrong", comb))
	}
	return c, nil
}

// gatherLayoutOK checks that the root holds node q's block at offset 8q.
func gatherLayoutOK(seed uint64, layout []byte, n int) bool {
	if len(layout) != 8*n {
		return false
	}
	for q := 0; q < n; q++ {
		if binary.LittleEndian.Uint64(layout[8*q:]) != gatherWord(seed, q) {
			return false
		}
	}
	return true
}

// runCollectives runs the combining-off cell, then the combining-on cell.
func runCollectives(seed uint64, tc *trace.Collector) ([2]*collCell, error) {
	var cells [2]*collCell
	for i, comb := range []bool{false, true} {
		c, err := runCollCell(seed, comb, tc)
		if err != nil {
			return cells, err
		}
		c.cl.Shutdown()
		cells[i] = c
	}
	return cells, nil
}

// collectivesRep runs one untraced repetition: both cells.
func collectivesRep(seed uint64) (rep, error) {
	cells, err := runCollectives(seed, nil)
	if err != nil {
		return rep{}, err
	}
	var r rep
	collResults(cells, &r)
	return r, nil
}

// collResults fills the host times, virtual-time results and checks.
func collResults(cells [2]*collCell, r *rep) {
	var lat []int64
	h := newFNV()
	for _, c := range cells {
		r.Setup += c.setup
		r.Run += c.run
		lat = append(lat, c.lat...)
		r.Attempted += c.checked
		r.Failed += c.mismatch
		r.Errs = append(r.Errs, c.errs...)
		h.add(c.dt.Sum())
	}
	r.Digest = uint64(h)
	r.LatP50, r.LatTail, r.TailQ = quantiles(lat)
	r.Samples = int64(len(lat))
	sw, on := cells[0], cells[1]
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	r.Virt = []named{
		{"gsync_sw_us", us(sw.gsync)},
		{"gdsum_sw_us", us(sw.gdsum)},
		{"gather_us", us(sw.gather)},
		{"gsync_comb_us", us(on.gsync)},
		{"gdsum_comb_us", us(on.gdsum)},
	}
	if on.gsync >= sw.gsync || on.gdsum >= sw.gdsum {
		r.Errs = append(r.Errs, "combining did not beat the software collectives")
	}
}

// collectivesLayers is one traced pass of the collectives workload: both
// cells untraced for the host set-up parts, then traced, with identical
// virtual-time results required.
func collectivesLayers(seed uint64, ls *layerSet) error {
	plain, err := runCollectives(seed, nil)
	if err != nil {
		return err
	}
	var want rep
	collResults(plain, &want)
	boot := plain[0].boot + plain[1].boot
	ls.set("cluster.boot_s", boot)
	ls.set("connect_s", want.Setup-boot)

	tc := trace.New()
	// Histograms are what the traced pass reads; per-packet channel spans
	// at 256 nodes would be millions of entries.
	tc.MaxSpans = 1 << 16
	cells, err := runCollectives(seed, tc)
	if err != nil {
		return err
	}
	var got rep
	collResults(cells, &got)
	if !got.sameVirtual(want) {
		return fmt.Errorf("tracing changed the virtual-time results")
	}
	ls.overhead(want.Run, got.Run)
	events := float64(cells[0].dt.Events + cells[1].dt.Events)
	ls.set("sim.events", events)
	ls.set("sim.switches", float64(cells[0].dt.Switches+cells[1].dt.Switches))
	ls.set("sim.host_ns_per_event", want.Run*1e9/events)
	fromCluster(cells[0].cl, ls)
	fromCluster(cells[1].cl, ls)
	fromCollector(tc, float64(got.Samples), ls)
	for _, v := range want.Virt {
		ls.set("virt."+v.Name, v.Value)
	}
	return nil
}
