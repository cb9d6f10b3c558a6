package bench

import (
	"shrimp/internal/cluster"
	"shrimp/internal/sim"
)

// env is one scenario's world configuration, handed explicitly to every
// driver that builds a world. Nothing reaches a driver through package
// state: a harness that wants a fault plan, a trace collector, a replay
// digest or snapshot clones under an unmodified figure scenario says so in
// the env it passes, and concurrent scenarios simply hold separate envs.
type env struct {
	// cfg is the base every world starts from — Trace, FaultPlan,
	// FaultSeed, Reliable, Auto and Timeouts. Drivers choose only the
	// geometry.
	cfg cluster.Config
	// provide, when non-nil, sources worlds instead of a fresh boot
	// (snapshot clones, warm pools). It may return nil to decline a
	// config, which falls back to a normal boot.
	provide func(cluster.Config) *cluster.Cluster
	// last is the live world the env built most recently, for harnesses
	// that read its fault counters or stalled procs after the run.
	last *cluster.Cluster
}

// world builds an mx×my world from the env's base config. The env owns it:
// the world the env built before is shut down first, and close shuts down
// the last one, so a harness that closes its env leaves nothing parked.
func (e *env) world(mx, my int) *cluster.Cluster {
	e.close()
	cfg := e.cfg
	cfg.MeshX, cfg.MeshY = mx, my
	var c *cluster.Cluster
	if e.provide != nil {
		c = e.provide(cfg)
	}
	if c == nil {
		c = cluster.New(cfg)
	}
	e.last = c
	return c
}

// close shuts down the env's live world, if any. Harnesses call it once
// they have read what they need from the world, on every path.
func (e *env) close() {
	if e.last != nil {
		e.last.Shutdown()
		e.last = nil
	}
}

// runDigested runs fn on a fresh env over base with a new replay-digest
// fold attached to every world it builds, closes the env, and returns the
// digest.
func runDigested(base cluster.Config, fn func(e *env) error) (uint64, error) {
	dt := sim.NewDigestTracer()
	base.Auto = dt
	e := &env{cfg: base}
	defer e.close()
	err := fn(e)
	return dt.Sum(), err
}
