package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"shrimp/internal/cluster"
	"shrimp/internal/trace"
)

// layerDef is one per-layer metric and the interaction it is recorded for:
// the end-to-end metric it should move, the workloads where it should move
// it, and the workloads where it is predicted not to.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Moves  string `json:"moves"`
	On     string `json:"on"`
	NotOn  string `json:"not_on,omitempty"`
}

// profModules are the modules the CPU-profile roll-up charges samples to,
// besides goswitch, gc and other.
var profModules = []string{
	"sim", "mem", "kernel", "nic", "mesh", "ether", "daemon", "vmmc",
	"nx", "socket", "sunrpc", "xdr", "srpc", "app", "trace", "cluster", "bench",
}

// layerCatalogue lists every per-layer metric in output order. Counters a
// workload never exercises read 0; the virt.* results read 0 on workloads
// that do not produce them.
func layerCatalogue() []layerDef {
	const all = "figures,serve,collectives"
	d := func(name, unit, better, moves, on, notOn string) layerDef {
		return layerDef{name, unit, better, moves, on, notOn}
	}
	defs := []layerDef{
		d("sim.events", "count", "lower", "run_s", "serve,collectives", ""),
		d("sim.switches", "count", "lower", "run_s", "serve,collectives", ""),
		d("sim.host_ns_per_event", "ns", "lower", "run_s", "serve,collectives", ""),
		d("sim.switch_ns", "ns", "lower", "run_s", "figures,collectives", ""),
		d("sim.switch_allocs", "allocs", "lower", "alloc_mb", "figures,collectives", ""),
		d("sim.post_ns", "ns", "lower", "run_s", "serve", ""),
		d("sim.post_allocs", "allocs", "lower", "alloc_mb", "serve", ""),
		d("sim.digest_ns", "ns", "lower", "run_s", "serve,collectives", "figures"),
		d("sim.digest_allocs", "allocs", "lower", "alloc_mb", "serve,collectives", "figures"),
		d("kernel.translate_ns", "ns", "lower", "run_s", "figures,collectives", ""),
		d("kernel.translate_allocs", "allocs", "lower", "alloc_mb", "figures,collectives", ""),
		d("kernel.irqs", "count", "lower", "vlat_tail_us", all, ""),
		d("mem.page_copy_ns", "ns", "lower", "run_s", "figures", ""),
		d("mem.page_copy_allocs", "allocs", "lower", "alloc_mb", "figures", ""),
		d("mem.u32_ns", "ns", "lower", "run_s", "collectives", "serve"),
		d("mem.u32_allocs", "allocs", "lower", "alloc_mb", "collectives", "serve"),
		d("nic.packets_out", "count", "lower", "run_s", all, ""),
		d("nic.du_dma_us", "vus", "lower", "vlat_tail_us", "figures,serve", ""),
		d("nic.in_dma_us", "vus", "lower", "vlat_tail_us", "figures,serve", ""),
		d("mesh.packets", "count", "lower", "run_s", all, ""),
		d("mesh.bytes", "bytes", "lower", "run_s", all, ""),
		d("mesh.route_ns", "ns", "lower", "run_s", "collectives", "figures"),
		d("mesh.route_allocs", "allocs", "lower", "alloc_mb", "collectives", "figures"),
		d("mesh.link_wait_p99_us", "vus", "lower", "vlat_tail_us", "serve,collectives", ""),
		d("mesh.comb_merged", "count", "higher", "vlat_p50_us", "collectives", "figures,serve"),
		d("ether.messages", "count", "lower", "setup_s", "collectives,serve", ""),
		d("vmmc.du_init_us", "vus", "lower", "vlat_p50_us", "figures", ""),
		d("fig3_s", "s", "lower", "run_s", "figures", "serve,collectives"),
		d("nx.credit_wait_us", "vus", "lower", "vlat_p50_us", "figures", ""),
		d("fig4_s", "s", "lower", "run_s", "figures", "serve,collectives"),
		d("sunrpc.sbl_us", "vus", "lower", "vlat_p50_us", "figures", "serve,collectives"),
		d("xdr.roundtrip_ns", "ns", "lower", "run_s", "figures", "serve,collectives"),
		d("xdr.roundtrip_allocs", "allocs", "lower", "alloc_mb", "figures", "serve,collectives"),
		d("fig5_s", "s", "lower", "run_s", "figures", "serve,collectives"),
		d("socket.space_wait_us", "vus", "lower", "vlat_p50_us", "figures", "serve,collectives"),
		d("fig7_s", "s", "lower", "run_s", "figures", "serve,collectives"),
		d("srpc.calls", "count", "lower", "run_s", "serve,figures", "collectives"),
		d("srpc.call_timeouts", "count", "lower", "ok_frac", "serve", "figures,collectives"),
		d("fig8_s", "s", "lower", "run_s", "figures", "serve,collectives"),
		d("app.record_ns", "ns", "lower", "run_s", "serve", "figures,collectives"),
		d("app.record_allocs", "allocs", "lower", "alloc_mb", "serve", "figures,collectives"),
		d("app.depth_hw", "count", "lower", "vlat_tail_us", "serve", "figures,collectives"),
		d("app.shed", "count", "lower", "ok_frac", "serve", "figures,collectives"),
		d("app.retries", "count", "lower", "vlat_tail_us", "serve", "figures,collectives"),
		d("trace.observe_ns", "ns", "lower", "run_s", "serve", "figures,collectives"),
		d("trace.observe_allocs", "allocs", "lower", "alloc_mb", "serve", "figures,collectives"),
		d("trace.overhead_pct", "%", "lower", "run_s", "serve", ""),
		d("cluster.boot_s", "s", "lower", "setup_s", all, ""),
		d("app.start_s", "s", "lower", "setup_s", "serve", "figures,collectives"),
		d("warmup_s", "s", "lower", "setup_s", "serve", "figures,collectives"),
		d("connect_s", "s", "lower", "setup_s", "collectives", "figures,serve"),
	}
	for _, m := range profModules {
		on, notOn := all, ""
		if m == "app" || m == "trace" {
			on, notOn = "serve", "figures,collectives"
		}
		defs = append(defs, d("host."+m+"_pct", "%", "lower", "run_s", on, notOn))
	}
	defs = append(defs,
		d("host.goswitch_pct", "%", "lower", "run_s", "figures,collectives", ""),
		d("host.gc_pct", "%", "lower", "alloc_mb", "serve", ""),
		d("host.other_pct", "%", "lower", "run_s", all, ""),
		d("host.mallocs", "count", "lower", "alloc_mb", all, ""),
		d("host.calib_ms", "ms", "lower", "run_s", all, ""),
		d("host.goroutines_left", "count", "lower", "peak_rss_mb", "figures", "serve,collectives"),
		d("virt.paper_err_pct", "%", "lower", "vlat_p50_us", "figures", "serve,collectives"),
		d("virt.get_p50_us", "vus", "lower", "vlat_p50_us", "serve", "figures,collectives"),
		d("virt.get_p99_us", "vus", "lower", "vlat_tail_us", "serve", "figures,collectives"),
		d("virt.put_p99_us", "vus", "lower", "vlat_tail_us", "serve", "figures,collectives"),
		d("virt.goodput_ops_s", "ops/s", "higher", "ok_frac", "serve", "figures,collectives"),
		d("virt.gsync_sw_us", "vus", "lower", "vlat_p50_us", "collectives", "figures,serve"),
		d("virt.gdsum_sw_us", "vus", "lower", "vlat_tail_us", "collectives", "figures,serve"),
		d("virt.gather_us", "vus", "lower", "vlat_tail_us", "collectives", "figures,serve"),
		d("virt.gsync_comb_us", "vus", "lower", "vlat_p50_us", "collectives", "figures,serve"),
		d("virt.gdsum_comb_us", "vus", "lower", "vlat_p50_us", "collectives", "figures,serve"),
	)
	return defs
}

// metricDef is one end-to-end metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "frac", "higher"},
	{"vlat_p50_us", "vus", "lower"},
	{"vlat_tail_us", "vus", "lower"},
}

// printCatalogue prints the metric catalogue: the workloads, the
// end-to-end metrics and every per-layer metric with its predicted
// interaction.
func printCatalogue() {
	type wdef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wdef
	for _, w := range workloads() {
		ws = append(ws, wdef{w.name, w.why})
	}
	cat := struct {
		Workloads []wdef      `json:"workloads"`
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []layerDef  `json:"per_layer"`
	}{ws, endToEnd, layerCatalogue()}
	b, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(b))
}

// layerSet accumulates per-layer values by name.
type layerSet struct {
	vals map[string]float64
}

func newLayerSet() *layerSet { return &layerSet{vals: map[string]float64{}} }

func (ls *layerSet) set(name string, v float64) { ls.vals[name] = v }
func (ls *layerSet) add(name string, v float64) { ls.vals[name] += v }

// overhead records trace.overhead_pct: the traced run's host time over the
// same run untraced.
func (ls *layerSet) overhead(plain, traced float64) {
	ls.set("trace.overhead_pct", 100*(traced-plain)/plain)
}

// layerPass is what one traced pass (a child process) reports.
type layerPass struct {
	Values map[string]float64 `json:"values"`
	Errs   []string           `json:"errs"`
}

// runLayers is the traced run: the workload-independent layer probes, then
// traced passes of the workload, each in a child process, until the window
// has passed (at least one), then one CPU-profiled repetition. Each value is
// the median over the passes; exact counts agree across passes.
func runLayers(w workload, seed uint64, seconds float64) (result, error) {
	fixed := newLayerSet() // probes and the profile: one value each
	fixed.set("host.calib_ms", calibrate()*1e3)
	runProbes(fixed)

	// Traced passes measure the run's first input.
	in := inputSeed(seed, 0)
	res := result{Correct: true, Metrics: map[string]metric{}}
	var passes []layerPass
	start := hostNow()
	for len(passes) == 0 || hostSince(start) < seconds {
		var p layerPass
		if err := spawn(w, in, &p, "--child", "layers"); err != nil {
			return result{}, err
		}
		res.Attempted++
		if len(p.Errs) > 0 {
			res.Correct = false
			res.Failed++
			for _, e := range p.Errs {
				fmt.Printf("FAIL traced pass %d: %s\n", len(passes), e)
			}
		}
		passes = append(passes, p)
	}
	if err := profileShares(w, in, fixed); err != nil {
		return result{}, err
	}

	fmt.Printf("workload %s: %d traced passes\n", w.name, len(passes))
	for _, d := range layerCatalogue() {
		v, ok := fixed.vals[d.Name]
		if !ok {
			var xs []float64
			for _, p := range passes {
				xs = append(xs, p.Values[d.Name])
			}
			v = median(xs)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		note := ""
		if d.NotOn != "" {
			note = " (not on " + d.NotOn + ")"
		}
		fmt.Printf("layer %-26s %16.4f %-7s moves %s on %s%s\n", d.Name, v, d.Unit, d.Moves, d.On, note)
	}
	return res, nil
}

// fromCluster adds a world's public layer counters.
func fromCluster(c *cluster.Cluster, ls *layerSet) {
	for _, n := range c.Nodes {
		ls.add("kernel.irqs", float64(n.M.IRQRaised))
		ls.add("nic.packets_out", float64(n.NIC.PacketsOut))
	}
	ls.add("mesh.packets", float64(c.Mesh.PacketsDelivered))
	ls.add("mesh.bytes", float64(c.Mesh.BytesDelivered))
	merged, _ := c.Mesh.CombStats()
	ls.add("mesh.comb_merged", float64(merged))
	ls.add("ether.messages", float64(c.Ether.MessagesDelivered))
}

// fromCollector reads the traced pass's spans, counters and histograms.
// Span metrics are total virtual µs per op of the pass.
func fromCollector(tc *trace.Collector, ops float64, ls *layerSet) {
	spanUS := map[string]float64{}
	for _, st := range tc.SpanStats() {
		spanUS[st.Name] += float64(st.Total) / 1e3
	}
	perOp := func(name string, spans ...string) {
		var t float64
		for _, s := range spans {
			t += spanUS[s]
		}
		ls.set(name, t/ops)
	}
	perOp("nic.du_dma_us", "du.dma")
	perOp("nic.in_dma_us", "in.dma")
	perOp("vmmc.du_init_us", "du.init")
	perOp("nx.credit_wait_us", "csend.credit-wait")
	perOp("sunrpc.sbl_us", "sbl.encode", "sbl.push", "sbl.decode")
	perOp("socket.space_wait_us", "send.space-wait")

	counters := collectorCounters(tc)
	ls.set("srpc.calls", counters["srpc/calls"])
	ls.set("srpc.call_timeouts", counters["srpc/call.timeouts"])
	if h := tc.Hist("mesh", "link.wait"); h != nil {
		ls.set("mesh.link_wait_p99_us", float64(h.Quantile(0.99))/1e3)
	}
}

// fromCollectorCounts reads the packet and interrupt counts from the
// collector, for worlds whose cluster the benchmark cannot reach (the
// figure drivers build theirs internally).
func fromCollectorCounts(tc *trace.Collector, ls *layerSet) {
	counters := collectorCounters(tc)
	var packetized float64
	for _, st := range tc.SpanStats() {
		if st.Name == "packetize" {
			packetized += float64(st.Count)
		}
	}
	ls.set("kernel.irqs", counters["kernel/irq"])
	ls.set("nic.packets_out", packetized)
	ls.set("mesh.packets", float64(tc.Counter("mesh", "delivered")))
	ls.set("mesh.bytes", counters["nic/payload.bytes"])
}

// collectorCounters sums the collector's counters and histogram sums over
// nodes, keyed "<component>/<name>" (track "node3/srpc" → "srpc"). The
// collector exposes its full instrument set only through CSV.
func collectorCounters(tc *trace.Collector) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(tc.CSV(), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 7 || (f[0] != "counter" && f[0] != "hist") {
			continue
		}
		v, err := strconv.ParseFloat(f[6], 64)
		if err != nil {
			continue
		}
		comp := f[1]
		if i := strings.LastIndexByte(comp, '/'); i >= 0 {
			comp = comp[i+1:]
		}
		out[comp+"/"+f[2]] += v
	}
	return out
}
