package main

import (
	"fmt"
	"math"

	"shrimp/internal/bench"
	"shrimp/internal/cluster"
	"shrimp/internal/trace"
)

const figuresWhy = "the paper's evaluation: Fig 3-8 ping-pong sweeps on 2x2 worlds load the proc switch, Translate, mem copies and all five libraries; bypasses app, trace histograms, digest and combining"

// figIters is the ping-pong iteration count per figure point, as in
// shrimpbench's default sweep.
const figIters = 8

// figuresOut is one complete sweep of the paper's evaluation.
type figuresOut struct {
	figs map[string]*bench.Figure
	peak bench.PeakResult
	ttcp bench.TTCPResult
	rpc  bench.RPCBaseline
}

// figOrder fixes the order figures are run and fingerprinted in.
var figOrder = []string{"fig3", "fig4", "fig5", "fig7", "fig8"}

// runFigure runs one figure driver by id.
func runFigure(id string) *bench.Figure {
	switch id {
	case "fig3":
		return bench.Fig3(figIters)
	case "fig4":
		return bench.Fig4(figIters)
	case "fig5":
		return bench.Fig5(figIters)
	case "fig7":
		return bench.Fig7(figIters)
	default:
		return bench.Fig8(figIters)
	}
}

// runFigures runs the sweep: every figure, then the paper anchors. figTime,
// when non-nil, receives the host seconds each figure driver took.
func runFigures(figTime map[string]float64) figuresOut {
	out := figuresOut{figs: map[string]*bench.Figure{}}
	for _, id := range figOrder {
		t := hostNow()
		out.figs[id] = runFigure(id)
		if figTime != nil {
			figTime[id] = hostSince(t)
		}
	}
	out.peak = bench.RunPeak()
	out.ttcp = bench.RunTTCP()
	out.rpc = bench.RunRPCBaseline()
	return out
}

// bootPrototype returns the median host seconds of 25 boots of the 2x2
// prototype world every figure point builds before its first message: the
// figures workload's set-up. One boot takes well under a millisecond.
func bootPrototype() float64 {
	var boots []float64
	for i := 0; i < 25; i++ {
		t := hostNow()
		c := cluster.New(cluster.Config{})
		boots = append(boots, hostSince(t))
		c.Shutdown()
	}
	return median(boots)
}

// figuresRep runs one sweep. The sweep is deterministic, so the seed is
// not used.
func figuresRep(uint64) (rep, error) {
	setup := bootPrototype()
	t := hostNow()
	out := runFigures(nil)
	r := rep{Setup: setup, Run: hostSince(t)}

	h := newFNV()
	var lat []int64
	for _, id := range figOrder {
		for _, s := range out.figs[id].Serie {
			for _, p := range s.Points {
				lat = append(lat, int64(math.Round(p.LatencyUS*1e3)))
				h.add(math.Float64bits(p.LatencyUS))
				h.add(math.Float64bits(p.MBPerSec))
			}
		}
	}
	r.LatP50, r.LatTail, r.TailQ = quantiles(lat)
	r.Samples = int64(len(lat))

	errPct, anchors := paperError(out)
	r.Virt = append([]named{{"paper_err_pct", errPct}}, anchors...)
	for _, v := range r.Virt {
		h.add(math.Float64bits(v.Value))
	}
	r.Digest = uint64(h)

	for _, c := range paperOrderings(out) {
		r.Attempted++
		if !c.ok {
			r.Failed++
			r.Errs = append(r.Errs, "paper ordering: "+c.name)
		}
	}
	return r, nil
}

// pt reads one figure point; a missing point reads as NaN, which fails
// every ordering it enters.
func pt(out figuresOut, fig, series string, size int) bench.Point {
	if f := out.figs[fig]; f != nil {
		if s := f.Get(series); s != nil {
			if p, ok := s.At(size); ok {
				return p
			}
		}
	}
	return bench.Point{Size: size, LatencyUS: math.NaN(), MBPerSec: math.NaN()}
}

// anchor is one numeric result the paper states.
type anchor struct {
	name            string
	paper, measured float64
}

// paperAnchors lists the numeric anchors of EXPERIMENTS.md.
func paperAnchors(out figuresOut) []anchor {
	hwWord := out.peak.AUWordWTus
	nullCompat := pt(out, "fig8", "compatible", 0).LatencyUS
	nullSRPC := pt(out, "fig8", "non-compatible", 0).LatencyUS
	return []anchor{
		{"au_word_us", 4.75, out.peak.AUWordWTus},
		{"du_word_us", 7.6, out.peak.DUWordUS},
		{"du0copy_mbs", 23, out.peak.DU0copyMBs},
		{"nx_over_hw_us", 6, pt(out, "fig4", "default", 4).LatencyUS - hwWord},
		{"vrpc_null_us", 29, out.rpc.SBLNullUS},
		{"sock_over_hw_us", 13, pt(out, "fig7", "AU-2copy", 4).LatencyUS - hwWord},
		{"ttcp_7k_mbs", 8.6, out.ttcp.TTCP7K},
		{"micro_7k_mbs", 9.8, out.ttcp.Micro7K},
		{"ttcp_70_mbs", 1.3, out.ttcp.TTCP70},
		{"srpc_null_us", 9.5, nullSRPC},
		{"srpc_ratio", 3.05, nullCompat / nullSRPC},
	}
}

// paperError is the mean |relative error| over the anchors, in percent,
// with each measured anchor listed.
func paperError(out figuresOut) (float64, []named) {
	var sum float64
	var list []named
	as := paperAnchors(out)
	for _, a := range as {
		sum += math.Abs(a.measured-a.paper) / a.paper
		list = append(list, named{a.name, a.measured})
	}
	return 100 * sum / float64(len(as)), list
}

// ordering is one shape claim the reproduction must keep.
type ordering struct {
	name string
	ok   bool
}

// paperOrderings are the orderings EXPERIMENTS.md marks as reproduced.
func paperOrderings(out figuresOut) []ordering {
	var list []ordering
	add := func(name string, ok bool) { list = append(list, ordering{name, ok}) }

	// Figure 3.
	auWins := true
	for _, size := range bench.LatencySizes {
		auWins = auWins && pt(out, "fig3", "AU-1copy", size).LatencyUS < pt(out, "fig3", "DU-0copy", size).LatencyUS
	}
	add("fig3: AU beats DU latency at every small size", auWins)
	add("fig3: AU-1copy leads bandwidth at 1 KB",
		pt(out, "fig3", "AU-1copy", 1024).MBPerSec > pt(out, "fig3", "DU-0copy", 1024).MBPerSec)
	add("fig3: DU-0copy passes AU-1copy by 6 KB and leads at 10 KB",
		pt(out, "fig3", "DU-0copy", 6144).MBPerSec > pt(out, "fig3", "AU-1copy", 6144).MBPerSec &&
			pt(out, "fig3", "DU-0copy", 10240).MBPerSec > pt(out, "fig3", "AU-1copy", 10240).MBPerSec)
	half := pt(out, "fig3", "DU-1copy", 10240).MBPerSec / pt(out, "fig3", "DU-0copy", 10240).MBPerSec
	add("fig3: 2-copy variants run at roughly half the 0/1-copy asymptote", half > 0.4 && half < 0.65)
	add("peak: AU-1copy bandwidth slightly below DU-0copy at 10 KB",
		out.peak.AU1copyMBs < out.peak.DU0copyMBs && out.peak.AU1copyMBs > 0.85*out.peak.DU0copyMBs)

	// Figure 4.
	over := pt(out, "fig4", "default", 4).LatencyUS - out.peak.AUWordWTus
	add("fig4: NX small-message latency a few us above hardware", over > 4 && over < 8)
	add("fig4: DU-2copy beats DU-1copy at 4 B",
		pt(out, "fig4", "DU-2copy", 4).LatencyUS < pt(out, "fig4", "DU-1copy", 4).LatencyUS)
	add("fig4: DU-1copy beats DU-2copy at 2 KB",
		pt(out, "fig4", "DU-1copy", 2048).MBPerSec > pt(out, "fig4", "DU-2copy", 2048).MBPerSec)
	add("fig4: large messages approach the raw limit",
		pt(out, "fig4", "DU-0copy", 10240).MBPerSec > 0.8*pt(out, "fig3", "DU-0copy", 10240).MBPerSec)
	add("fig4: default protocol follows AU-2copy to 2 KB and zero-copy above",
		pt(out, "fig4", "default", 1024).LatencyUS == pt(out, "fig4", "AU-2copy", 1024).LatencyUS &&
			pt(out, "fig4", "default", 4096).LatencyUS == pt(out, "fig4", "DU-0copy", 4096).LatencyUS)
	add("fig4: zero-copy protocol poor for tiny messages",
		pt(out, "fig4", "DU-0copy", 4).LatencyUS > pt(out, "fig4", "default", 4).LatencyUS)

	// Figure 5.
	add("fig5: AU beats DU for small calls",
		pt(out, "fig5", "AU-1copy", 4).LatencyUS < pt(out, "fig5", "DU-1copy", 4).LatencyUS)
	add("fig5: several times faster than SunRPC over Ethernet", out.rpc.Speedup > 3)

	// Figure 7.
	sock := pt(out, "fig7", "AU-2copy", 4).LatencyUS - out.peak.AUWordWTus
	add("fig7: sockets add about 13 us over hardware", sock > 10 && sock < 16)
	add("fig7: large messages close to the 1-copy hardware limit",
		pt(out, "fig7", "DU-1copy", 10240).MBPerSec > 0.9*pt(out, "fig3", "DU-1copy", 10240).MBPerSec)

	// Section 4.3, ttcp.
	add("ttcp: 70 B buffers beat the Ethernet peak", out.ttcp.TTCP70 > out.ttcp.EthernetPeak)
	add("ttcp: microbenchmark beats ttcp at 7 KB", out.ttcp.Micro7K > out.ttcp.TTCP7K)

	// Figure 8.
	faster := true
	for _, p := range out.figs["fig8"].Get("non-compatible").Points {
		faster = faster && p.LatencyUS < pt(out, "fig8", "compatible", p.Size).LatencyUS
	}
	add("fig8: non-compatible RPC faster at every size", faster)
	small := pt(out, "fig8", "compatible", 0).LatencyUS / pt(out, "fig8", "non-compatible", 0).LatencyUS
	large := pt(out, "fig8", "compatible", 1000).LatencyUS / pt(out, "fig8", "non-compatible", 1000).LatencyUS
	add("fig8: about 3x for null calls, about 2x at 1000 B INOUT",
		small > 2.5 && large > 1.5 && large < 2.5 && small > large)
	return list
}

// figuresLayers is one traced pass of the figures workload: the sweep
// with each figure driver timed on its own, then one representative point
// per figure (bench.TraceFigure) run untraced and traced for the span and
// counter metrics and the tracing overhead.
func figuresLayers(_ uint64, ls *layerSet) error {
	ls.set("cluster.boot_s", bootPrototype())
	figTime := map[string]float64{}
	out := runFigures(figTime)
	for _, id := range figOrder {
		ls.set(id+"_s", figTime[id])
	}
	errPct, _ := paperError(out)
	ls.set("virt.paper_err_pct", errPct)

	points := func(tc *trace.Collector) (float64, error) {
		t := hostNow()
		for _, id := range figOrder {
			if _, err := bench.TraceFigure(id, tc); err != nil {
				return 0, fmt.Errorf("trace %s: %w", id, err)
			}
		}
		return hostSince(t), nil
	}
	plain, err := points(nil)
	if err != nil {
		return err
	}
	tc := trace.New()
	traced, err := points(tc)
	if err != nil {
		return err
	}
	ls.overhead(plain, traced)
	ops := float64(len(figOrder) * 4) // TraceFigure runs four round trips per point
	fromCollector(tc, ops, ls)
	fromCollectorCounts(tc, ls)
	if ev := tc.EngineEvents(); ev > 0 {
		ls.set("sim.events", float64(ev))
		ls.set("sim.host_ns_per_event", plain*1e9/float64(ev))
	}
	// No public hook counts proc switches in engines the figure drivers
	// build internally.
	ls.set("sim.switches", -1)
	return nil
}
