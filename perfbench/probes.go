package main

import (
	"runtime"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
	"shrimp/internal/xdr"
)

// probe times n calls of fn and returns host ns and heap allocations per
// call. Each layer probe is a timed loop over one public call.
func probe(n int, fn func(i int)) (ns, allocs float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := hostNow()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := hostSince(t)
	runtime.ReadMemStats(&after)
	return el * 1e9 / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeSink keeps probed results live.
var probeSink uint64

// runProbes runs every layer probe. They do not depend on the workload;
// each workload's traced run reports them beside its own numbers.
func runProbes(ls *layerSet) {
	put := func(name string, ns, allocs float64) {
		ls.set(name+"_ns", ns)
		ls.set(name+"_allocs", allocs)
	}
	loop := func(name string, n int, fn func(i int)) {
		ns, allocs := probe(n, fn)
		put(name, ns, allocs)
	}

	// sim: a proc switch, measured as a Cond.Wait/Broadcast ping-pong
	// (two switches per rally).
	const rallies = 20_000
	ns, allocs := probe(1, func(int) {
		e := sim.NewEngine()
		c := sim.NewCond(e)
		ball := 0
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
			for i := 0; i < rallies; i++ {
				for ball != 1 {
					c.Wait(p)
				}
				ball = 0
				c.Broadcast()
			}
		})
		e.RunAll()
		e.Shutdown()
	})
	put("sim.switch", ns/(2*rallies), allocs/(2*rallies))

	// sim: one posted event, run through the heap.
	e := sim.NewEngine()
	nop := func() {}
	loop("sim.post", 400_000, func(i int) {
		e.Post(time.Duration(i%64)*time.Microsecond, nop)
		if i%1024 == 1023 {
			e.RunAll()
		}
	})
	e.RunAll()

	// sim: the replay digest's fold of one event and one proc switch.
	dt := sim.NewDigestTracer()
	loop("sim.digest", 400_000, func(i int) {
		dt.Event(sim.Time(i), uint64(i))
		dt.ProcSwitch(sim.Time(i), "lg-send-0-1")
	})
	probeSink += dt.Sum()

	// kernel: a virtual-to-physical translation over 64 mapped pages.
	c := cluster.New(cluster.Config{})
	c.Spawn(0, "probe", func(p *kernel.Process) {
		va := p.Alloc(64*hw.Page, hw.Page)
		loop("kernel.translate", 1_000_000, func(i int) {
			pa, err := p.Translate(va + kernel.VA((i%64)*hw.Page))
			if err == nil {
				probeSink += uint64(pa)
			}
		})
	})
	c.Run()
	c.Shutdown()

	// mem: one page DMA'd in and copied back out, and one word read.
	m := mem.New(sim.NewEngine(), 1<<20)
	page := make([]byte, hw.Page)
	loop("mem.page_copy", 100_000, func(i int) {
		page[0] = byte(i)
		m.WriteDMA(mem.PA((i%16)*hw.Page), page)
		m.ReadInto(mem.PA((i%16)*hw.Page), page)
	})
	loop("mem.u32", 2_000_000, func(i int) {
		probeSink += uint64(m.U32(mem.PA((i % 1024) * 4)))
	})

	// mesh: the dimension-order route across a 16x16 mesh, corner to
	// corner.
	net := mesh.NewDims(sim.NewEngine(), []int{16, 16})
	loop("mesh.route", 200_000, func(int) {
		probeSink += uint64(len(net.Route(0, 255)))
	})

	// xdr: encode and decode a small record.
	sink := &xdr.BufferSink{}
	enc := xdr.NewEncoder(sink)
	payload := make([]byte, 16)
	loop("xdr.roundtrip", 400_000, func(i int) {
		sink.Buf = sink.Buf[:0]
		enc.PutUint32(uint32(i))
		enc.PutUint64(uint64(i))
		enc.PutOpaque(payload)
		dec := xdr.NewDecoder(&xdr.BufferSource{Buf: sink.Buf})
		a, _ := dec.Uint32()
		b, _ := dec.Uint64()
		o, _ := dec.OpaqueView(64)
		probeSink += uint64(a) + b + uint64(len(o))
	})

	// app: one completed op folded into the recorder, tracing off — what
	// every served op pays.
	rec := app.NewRecorder(8, nil)
	loop("app.record", 200_000, func(i int) {
		rec.Latency(app.ClassGet, sim.Time(100+i%100_000))
	})

	// trace: one histogram observation.
	h := trace.NewHistogram(trace.FineBounds())
	loop("trace.observe", 2_000_000, func(i int) {
		h.Observe(int64(100 + i%100_000))
	})
}
