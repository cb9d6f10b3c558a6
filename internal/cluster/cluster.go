// Package cluster assembles complete SHRIMP systems: PC nodes (CPU, memory,
// kernel), a custom network interface per node, the mesh routing backplane,
// the commodity Ethernet, and one SHRIMP daemon per node — the full Figure 1
// stack of the paper. The default configuration matches the prototype: four
// nodes on a 2x2 mesh, 40 MB of memory each.
package cluster

import (
	"fmt"
	"time"

	"shrimp/internal/daemon"
	"shrimp/internal/ether"
	"shrimp/internal/fault"
	"shrimp/internal/kernel"
	"shrimp/internal/mesh"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// Config selects the system geometry.
type Config struct {
	// MeshX, MeshY are the backplane dimensions. Nodes = MeshX*MeshY.
	MeshX, MeshY int
	// MeshDims, when non-empty, selects a k-ary n-dimensional mesh
	// backplane and overrides MeshX/MeshY: MeshDims[d] routers per
	// dimension d, dimension 0 varying fastest in the node index.
	// {x, y} is exactly MeshX: x, MeshY: y. New resolves the legacy 2-D
	// fields into this slice, so a resolved Config always carries it.
	MeshDims []int
	// Combining enables router-level in-network combining of collective
	// traffic on the backplane (mesh/combine.go): barriers and global
	// sums merge at routers along a dimension-order reduction tree
	// instead of running the software recursive-doubling rounds. Off by
	// default; the nx library picks the fast path up automatically.
	Combining bool
	// MemBytes is DRAM per node (default 40 MB, as on the DEC 560ST
	// prototype nodes).
	MemBytes int
	// OPTEntries sizes each NIC's outgoing page table (default 4096).
	OPTEntries int
	// Trace, when non-nil, is bound to the cluster's engine and distributed
	// to every layer (kernel, NIC, mesh, libraries), which then attribute
	// spans, counters, and histograms to it. Nil costs nothing.
	Trace *trace.Collector

	// FaultPlan, when non-nil, arms the deterministic fault injector:
	// link-level faults perturb every mesh packet per the plan's
	// probabilities, and the plan's scheduled NIC faults and node crashes
	// fire at their virtual times. Same plan + same FaultSeed = same run.
	FaultPlan *fault.Plan
	// FaultSeed seeds the injector's private PRNG (default 1).
	FaultSeed int64
	// Reliable enables the mesh link-level retransmission sublayer
	// (sequence numbers, checksums, go-back-N). Off by default so the
	// calibrated figure reproductions run on the raw reliable-by-
	// construction backplane the paper assumes.
	Reliable bool

	// Auto, when non-nil, is attached to the engine at construction with
	// Engine.AttachDigest, so it observes the world from its first event:
	// the way a scenario hands its replay-digest fold to every world it
	// builds.
	Auto sim.Tracer

	// Timeouts tunes the failure-detection timing constants; zero fields
	// take the documented defaults.
	Timeouts Timeouts
}

// Timeouts gathers the cluster-wide failure-detection timing knobs that
// used to be hard-coded constants scattered across layers. Tightening them
// detects dead peers faster; loosening them tolerates more congestion
// before declaring death. They deliberately live in one place so an
// experiment can shrink the whole detection envelope coherently.
type Timeouts struct {
	// DaemonRPC bounds every daemon-to-daemon Ethernet RPC
	// (import/release/revoke rendezvous). Default
	// daemon.DefaultRPCTimeout (5ms) up to 16 nodes, scaled linearly
	// with world size above that: the control Ethernet is shared, so a
	// 256-node boot storm legitimately queues RPCs for tens of
	// milliseconds, and timing those out just feeds the congestion.
	DaemonRPC time.Duration
	// BindFloor is the minimum deadline for SRPC rendezvous binds in the
	// serving subsystem (replication proxies and load-generator
	// gateways). Binds ride the congestible Ethernet, so they get a far
	// larger deadline than data-path calls: Ethernet congestion is not
	// death. Default 2s.
	BindFloor time.Duration
}

// withDefaults resolves zero fields to the documented defaults for a world
// of the given node count.
func (t Timeouts) withDefaults(nodes int) Timeouts {
	if t.DaemonRPC <= 0 {
		t.DaemonRPC = daemon.DefaultRPCTimeout
		if nodes > 16 {
			t.DaemonRPC = daemon.DefaultRPCTimeout * time.Duration(nodes) / 16
		}
	}
	if t.BindFloor <= 0 {
		t.BindFloor = 2 * time.Second
	}
	return t
}

// Node is one assembled PC node.
type Node struct {
	ID     int
	M      *kernel.Machine
	NIC    *nic.NIC
	Daemon *daemon.Daemon
	// Dead marks a crashed node (see Cluster.CrashNode).
	Dead bool
}

// Cluster is a running SHRIMP system.
type Cluster struct {
	Eng   *sim.Engine
	Mesh  *mesh.Network
	Ether *ether.Network
	Nodes []*Node
	// Fault is the armed injector when Config.FaultPlan was set (nil
	// otherwise); chaos harnesses read its counters.
	Fault *fault.Injector

	cfg Config
}

// New builds and boots a SHRIMP system.
func New(cfg Config) *Cluster {
	if len(cfg.MeshDims) == 0 {
		if cfg.MeshX == 0 {
			cfg.MeshX = 2
		}
		if cfg.MeshY == 0 {
			cfg.MeshY = 2
		}
		cfg.MeshDims = []int{cfg.MeshX, cfg.MeshY}
	} else {
		// Mirror the n-dim geometry into the legacy fields so code that
		// only knows MeshX*MeshY (snap, reports) still sees the node
		// count: dim 0 is "X", everything above folds into "Y".
		cfg.MeshX = cfg.MeshDims[0]
		cfg.MeshY = 1
		for _, d := range cfg.MeshDims[1:] {
			cfg.MeshY *= d
		}
	}
	nodes := 1
	for _, d := range cfg.MeshDims {
		nodes *= d
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 40 << 20
	}
	if cfg.OPTEntries == 0 {
		cfg.OPTEntries = 4096
	}
	cfg.Timeouts = cfg.Timeouts.withDefaults(nodes)
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Validate(nodes); err != nil {
			// A malformed fault plan is a harness configuration bug,
			// caught at construction.
			//lint:allow transitive-panic harness configuration bug caught at boot, not a protocol error
			panic("cluster: invalid fault plan: " + err.Error())
		}
	}
	eng := sim.NewEngine()
	if cfg.Auto != nil {
		eng.AttachDigest(cfg.Auto)
	}
	cfg.Trace.Bind(eng)
	msh := mesh.NewDims(eng, cfg.MeshDims)
	msh.Trace = cfg.Trace
	if cfg.Combining {
		msh.EnableCombining()
	}
	eth := ether.New(eng, nodes)
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = 1
	}
	c := &Cluster{Eng: eng, Mesh: msh, Ether: eth, cfg: cfg}
	if cfg.Reliable {
		msh.EnableReliability(mesh.RelConfig{})
	}
	for i := 0; i < nodes; i++ {
		m := kernel.NewMachine(i, eng, cfg.MemBytes)
		m.Trace = cfg.Trace
		n := nic.New(m, msh, mesh.NodeID(i), cfg.OPTEntries)
		d := daemon.New(i, m, n, msh, eth)
		d.RPCTimeout = cfg.Timeouts.DaemonRPC
		c.Nodes = append(c.Nodes, &Node{ID: i, M: m, NIC: n, Daemon: d})
	}
	if cfg.FaultPlan != nil {
		c.Fault = fault.NewInjector(cfg.FaultSeed, *cfg.FaultPlan)
		msh.SetInjector(c.Fault)
		eth.SetInjector(c.Fault)
		c.scheduleFaults(cfg.FaultPlan)
	}
	return c
}

// Timeouts returns the resolved failure-detection knobs for this cluster.
func (c *Cluster) Timeouts() Timeouts { return c.cfg.Timeouts }

// Config returns the resolved configuration the cluster was built with —
// the boot recipe. The snapshot layer embeds it in world images so a
// restore can re-run the identical recipe before installing state.
func (c *Cluster) Config() Config { return c.cfg }

// Settle drains every event at the current virtual instant without letting
// the clock advance — the quiesce step before a snapshot capture.
func (c *Cluster) Settle() { c.Eng.Settle() }

// Reachable reports whether messages can currently flow between two live
// nodes in both directions: false when either node is dead or an armed
// partition cuts either direction. Quorum checks in the serving layer use
// it as the modeled connectivity vote — a real implementation would
// collect acks over the control network; the model answers from the
// injector's ground truth, which those acks would (eventually) discover.
func (c *Cluster) Reachable(a, b int) bool {
	if a < 0 || a >= len(c.Nodes) || b < 0 || b >= len(c.Nodes) {
		return false
	}
	if c.Nodes[a].Dead || c.Nodes[b].Dead {
		return false
	}
	if a == b {
		return true
	}
	if c.Fault == nil {
		return true
	}
	return !c.Fault.CutEither(a, b, time.Duration(c.Eng.Now()))
}

// scheduleFaults arms the plan's scheduled NIC faults and node crashes at
// their virtual times. Targets are resolved at fire time so a fault aimed at
// a restarted node hits the fresh hardware, and anything addressed to a node
// that is dead when it fires is dropped.
func (c *Cluster) scheduleFaults(plan *fault.Plan) {
	for _, nf := range plan.NIC {
		nf := nf
		switch nf.Kind {
		case fault.FreezeStorm:
			count := nf.Count
			if count == 0 {
				count = 3
			}
			gap := nf.Gap
			if gap == 0 {
				gap = 5 * time.Microsecond
			}
			src := mesh.NodeID((nf.Node + 1) % len(c.Nodes))
			for i := 0; i < count; i++ {
				c.Eng.PostAt(sim.Time(0).Add(nf.At+time.Duration(i)*gap), func() {
					if n := c.Nodes[nf.Node]; !n.Dead {
						n.NIC.ForceFault(src)
					}
				})
			}
		case fault.OutStall:
			dur := nf.Dur
			if dur == 0 {
				dur = 20 * time.Microsecond
			}
			c.Eng.PostAt(sim.Time(0).Add(nf.At), func() {
				if n := c.Nodes[nf.Node]; !n.Dead {
					n.NIC.StallOutgoing(dur)
				}
			})
		}
	}
	for _, cr := range plan.Crashes {
		cr := cr
		c.Eng.PostAt(sim.Time(0).Add(cr.At), func() {
			if !c.Nodes[cr.Node].Dead {
				c.CrashNode(cr.Node)
			}
		})
		if cr.RestartAfter > 0 {
			c.Eng.PostAt(sim.Time(0).Add(cr.At+cr.RestartAfter), func() {
				if c.Nodes[cr.Node].Dead {
					c.RestartNode(cr.Node)
				}
			})
		}
	}
}

// CrashNode kills node i at the current virtual time: its NIC goes dark,
// the mesh drops everything addressed to it, its processes are killed, its
// daemon port closes, and the fabric announces the death to every surviving
// daemon (which garbage-collects the mappings it shared with the corpse).
func (c *Cluster) CrashNode(i int) {
	n := c.Node(i)
	if n.Dead {
		return
	}
	n.Dead = true
	n.NIC.Crash()
	c.Mesh.Detach(mesh.NodeID(i))
	n.Daemon.Crash()
	n.M.Crash()
	for j := 0; j < len(c.Nodes); j++ {
		if j == i || c.Nodes[j].Dead {
			continue
		}
		c.Ether.Inject(ether.Addr{Node: j, Port: daemon.Port}, 32, daemon.DeadNode{Node: i})
	}
}

// RestartNode boots fresh hardware in a crashed node's slot: new machine,
// new NIC (reattached to the mesh), new daemon. State is not recovered —
// the paper's cluster has no stable storage story — so the node rejoins
// empty, like a rebooted PC. Exports and imports must be re-established.
func (c *Cluster) RestartNode(i int) *Node {
	old := c.Node(i)
	if !old.Dead {
		//lint:allow transitive-panic harness sequencing bug: only crashed nodes restart
		panic(fmt.Sprintf("cluster: restart of live node %d", i))
	}
	m := kernel.NewMachine(i, c.Eng, c.cfg.MemBytes)
	m.Trace = c.cfg.Trace
	n := nic.New(m, c.Mesh, mesh.NodeID(i), c.cfg.OPTEntries)
	d := daemon.New(i, m, n, c.Mesh, c.Ether)
	d.RPCTimeout = c.cfg.Timeouts.DaemonRPC
	fresh := &Node{ID: i, M: m, NIC: n, Daemon: d}
	c.Nodes[i] = fresh
	return fresh
}

// Default returns the 4-node prototype configuration.
func Default() *Cluster { return New(Config{}) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node {
	if i < 0 || i >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: no node %d", i)) //lint:allow transitive-panic harness index bug, not a runtime condition
	}
	return c.Nodes[i]
}

// Spawn starts a user process on node i.
func (c *Cluster) Spawn(node int, name string, body func(p *kernel.Process)) *kernel.Process {
	return c.Node(node).M.Spawn(name, body)
}

// Run drives the simulation until all activity drains (daemons block
// waiting for requests; they do not hold the engine busy).
func (c *Cluster) Run() sim.Time { return c.Eng.RunAll() }

// RunFor drives the simulation for at most d of virtual time.
func (c *Cluster) RunFor(d time.Duration) sim.Time {
	return c.Eng.Run(c.Eng.Now().Add(d))
}

// RunChecked drives the simulation until it drains or the virtual-time
// budget expires, then asks the engine's watchdog for a verdict: a run that
// ran out of budget or drained with non-service processes still parked
// returns a *sim.DeadlockError naming the blocked processes.
func (c *Cluster) RunChecked(budget time.Duration) (sim.Time, error) {
	return c.Eng.RunChecked(c.Eng.Now().Add(budget))
}

// Shutdown releases every parked process goroutine (daemons, servers,
// blocked applications). Call it when a long-lived program is done with the
// cluster; tests that build many clusters in one binary use it to avoid
// accumulating goroutines.
func (c *Cluster) Shutdown() { c.Eng.Shutdown() }
