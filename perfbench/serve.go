package main

import (
	"fmt"
	"time"

	"shrimp/internal/app"
	"shrimp/internal/app/loadgen"
	"shrimp/internal/cluster"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

const serveWhy = "the only open-loop workload: sharded KV on 8 nodes just below the knee loads timers, srpc batching, the app recorder, trace histograms and the digest; gets skip replication, puts do not"

// serveConfig is the offered load: open loop at 6e5 ops/s of virtual time
// for 50 ms, 64Ki sessions, Zipf s=1.07 over 64Ki keys, 10% puts, gateways
// on every node, no crash. The rate sits just below the 8-node knee.
func serveConfig(seed uint64) loadgen.Config {
	return loadgen.Config{
		Sessions:  1 << 16,
		Rate:      6e5,
		Duration:  50 * time.Millisecond,
		Keys:      1 << 16,
		ZipfS:     1.07,
		WriteFrac: 0.1,
		Seed:      seed,
	}
}

// serveRun is one serving world, run to completion.
type serveRun struct {
	setup, run float64 // host seconds: to the first due op, then to drain
	boot       float64 // host seconds in cluster.New
	start      float64 // host seconds in app.Start + loadgen.Start
	cl         *cluster.Cluster
	app        *app.App
	gen        *loadgen.Gen
	rep        loadgen.Report
	dt         *sim.DigestTracer
}

// runServe builds the 4x2 world with the replay digest attached (and the
// collector, when tc is non-nil), starts the app and the generator, and
// runs until the generator drains. The caller shuts the cluster down.
func runServe(seed uint64, tc *trace.Collector) (*serveRun, error) {
	s := &serveRun{dt: sim.NewDigestTracer()}
	t0 := hostNow()
	s.cl = cluster.New(cluster.Config{MeshX: 4, MeshY: 2, Trace: tc, Auto: s.dt})
	s.boot = hostSince(t0)
	t1 := hostNow()
	a, err := app.Start(s.cl, app.Config{Trace: tc})
	if err != nil {
		s.cl.Shutdown()
		return nil, fmt.Errorf("app.Start: %w", err)
	}
	g, err := loadgen.Start(a, serveConfig(seed))
	if err != nil {
		s.cl.Shutdown()
		return nil, fmt.Errorf("loadgen.Start: %w", err)
	}
	s.start = hostSince(t1)
	s.app, s.gen = a, g

	// Set-up ends when the first generated op is due: the app is ready and
	// every gateway's warm-up bind is done.
	var due time.Time
	s.cl.Eng.Spawn("perfbench-due", func(p *sim.Proc) {
		g.WaitStarted(p)
		due = hostNow()
	})
	if _, err := s.cl.RunChecked(30 * time.Second); err != nil {
		s.cl.Shutdown()
		return nil, fmt.Errorf("serve: %w", err)
	}
	end := hostNow()
	if due.IsZero() {
		s.cl.Shutdown()
		return nil, fmt.Errorf("serve: generator never started")
	}
	s.setup = due.Sub(t0).Seconds()
	s.run = end.Sub(due).Seconds()
	s.rep = g.Report()
	return s, nil
}

// serveRep runs one untraced serving world.
func serveRep(seed uint64) (rep, error) {
	s, err := runServe(seed, nil)
	if err != nil {
		return rep{}, err
	}
	defer s.cl.Shutdown()
	r := rep{Setup: s.setup, Run: s.run}
	serveResults(s, &r)
	return r, nil
}

// serveResults fills the virtual-time results and the correctness checks.
// Client latency is measured from each op's due time; a request that did
// not complete counts as slower than any quantile.
func serveResults(s *serveRun, r *rep) {
	rec := s.app.Rec
	failed := s.rep.Requests - s.rep.Completed
	r.Attempted = s.rep.Requests
	r.Failed = failed + rec.ValueErrs
	r.Digest = s.dt.Sum()

	// All client ops: get and put histograms share FineBounds.
	all := trace.NewHistogram(rec.Lat[app.ClassGet].Bounds)
	for _, c := range []int{app.ClassGet, app.ClassPut} {
		h := rec.Lat[c]
		for i, n := range h.Counts {
			all.Counts[i] += n
		}
		if all.N == 0 || h.Min < all.Min {
			all.Min = h.Min
		}
		if h.Max > all.Max {
			all.Max = h.Max
		}
		all.N += h.N
		all.Sum += h.Sum
	}
	r.Samples = all.N
	r.TailQ = 0.99
	r.LatP50 = failedAware(all, 0.5, failed)
	r.LatTail = failedAware(all, r.TailQ, failed)
	r.Virt = []named{
		{"get_p50_us", failedAware(rec.Lat[app.ClassGet], 0.5, failed)},
		{"get_p99_us", failedAware(rec.Lat[app.ClassGet], 0.99, failed)},
		{"put_p99_us", failedAware(rec.Lat[app.ClassPut], 0.99, failed)},
		{"goodput_ops_s", s.rep.ThroughputOpsSec},
		{"requests", float64(s.rep.Requests)},
		{"completed", float64(s.rep.Completed)},
	}

	if !s.gen.Done() {
		r.Errs = append(r.Errs, "generator did not drain")
	}
	if rec.ValueErrs != 0 || rec.ProtoErrs != 0 {
		r.Errs = append(r.Errs, fmt.Sprintf("%d value errors, %d protocol errors", rec.ValueErrs, rec.ProtoErrs))
	}
	if failed != 0 {
		r.Errs = append(r.Errs, fmt.Sprintf("%d of %d requests did not complete (shed %d, dropped %d, budget-exhausted %d)",
			failed, s.rep.Requests, rec.Shed, rec.Dropped, rec.BudgetExhausted))
	}
}

// failedAware reads quantile q of h in virtual µs, treating failed
// requests as slower than every observation: the rank moves up by the
// failures, and a rank past the completed ops reads as the maximum.
func failedAware(h *trace.Histogram, q float64, failed int64) float64 {
	if h.N == 0 {
		return 0
	}
	adj := q * float64(h.N+failed) / float64(h.N)
	if adj > 1 {
		adj = 1
	}
	return float64(h.Quantile(adj)) / 1e3
}

// serveLayers is one traced pass of the serving workload: an untraced
// world for the host set-up parts, then the same world with the collector
// attached, whose virtual-time results must not differ.
func serveLayers(seed uint64, ls *layerSet) error {
	plain, err := runServe(seed, nil)
	if err != nil {
		return err
	}
	plain.cl.Shutdown()
	var want rep
	serveResults(plain, &want)
	ls.set("cluster.boot_s", plain.boot)
	ls.set("app.start_s", plain.start)
	ls.set("warmup_s", plain.setup-plain.boot-plain.start)

	tc := trace.New()
	s, err := runServe(seed, tc)
	if err != nil {
		return err
	}
	s.cl.Shutdown()
	var got rep
	serveResults(s, &got)
	if !got.sameVirtual(want) {
		return fmt.Errorf("tracing changed the virtual-time results")
	}
	ls.overhead(plain.run, s.run)
	ls.set("sim.events", float64(s.dt.Events))
	ls.set("sim.switches", float64(s.dt.Switches))
	ls.set("sim.host_ns_per_event", plain.run*1e9/float64(s.dt.Events))
	fromCluster(s.cl, ls)
	fromCollector(tc, float64(s.rep.Completed), ls)
	rec := s.app.Rec
	ls.set("app.depth_hw", float64(rec.DepthHighWater()))
	ls.set("app.shed", float64(rec.Shed))
	ls.set("app.retries", float64(rec.Retries))
	for _, v := range want.Virt[:4] {
		ls.set("virt."+v.Name, v.Value)
	}
	return nil
}
