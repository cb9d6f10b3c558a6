package nx

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/sim"
)

// lazyCollectiveEvents and lazyCollectiveSwitches pin the engine events and
// proc switches of one lazy software-collective run on a 64-node 8x8 world
// (see runLazyCollectives), counted by the replay-digest fold. Neither
// depends on the host, so this is an exact gate on the big-world NX paths:
// the lazy connect storm, the receive poll and its wakeups. A change that
// adds, drops or reorders work there fails here until the constants are
// updated, with the reason, in the same change.
const (
	lazyCollectiveEvents   = 33746
	lazyCollectiveSwitches = 17899
)

// runLazyCollectives runs Gsync, Gdsum and Gather on 64 lazily connected
// nodes with combining off, folding the run into d.
func runLazyCollectives(t *testing.T, d sim.Tracer) {
	const n = 64
	runWorld(t, cluster.Config{MeshDims: []int{8, 8}, Auto: d}, n, Config{Lazy: true},
		func(x *NX, p *kernel.Process, me int) {
			x.Gsync()
			if got, want := x.Gdsum(float64(me)), float64(n*(n-1)/2); got != want {
				t.Errorf("node %d: Gdsum %v, want %v", me, got, want)
			}
			src := p.Alloc(8, 8)
			p.Poke(src, []byte{byte(me), 0, 0, 0, 0, 0, 0, 0})
			var dst kernel.VA
			if me == 0 {
				dst = p.Alloc(8*n, 8)
			}
			x.Gather(0, src, 8, dst)
			if me == 0 {
				got := p.Peek(dst, 8*n)
				for i := 0; i < n; i++ {
					if got[8*i] != byte(i) {
						t.Errorf("gather block %d holds %d", i, got[8*i])
					}
				}
			}
		})
}

// TestLazyCollectiveCounters gates the deterministic counters of the big
// NX world.
func TestLazyCollectiveCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("64-node world")
	}
	dt := sim.NewDigestTracer()
	runLazyCollectives(t, dt)
	if dt.Events != lazyCollectiveEvents || dt.Switches != lazyCollectiveSwitches {
		t.Errorf("%d engine events and %d proc switches, want %d and %d",
			dt.Events, dt.Switches, lazyCollectiveEvents, lazyCollectiveSwitches)
	}
}

// recvLoopAllocs is the allocation ceiling for runRecvLoop (world boot
// included), about 2% above the measured 46768; the race detector's
// instrumentation adds about 84.
const recvLoopAllocs = 47700

// runRecvLoop boots a 3x3 world in which node 0 opens connections to its
// 8 peers and runs 64 rounds: each peer sends one small message and waits
// for node 0's reply, and node 0 receives the 8 messages with Crecv
// before replying to all. Node 0 therefore blocks in the receive poll over
// all 8 connections many times a round.
func runRecvLoop(t *testing.T) {
	const peers, rounds = 8, 64
	runWorld(t, cluster.Config{MeshDims: []int{3, 3}}, peers+1, Config{Lazy: true},
		func(x *NX, p *kernel.Process, me int) {
			buf := p.Alloc(64, hw.WordSize)
			if me != 0 {
				for k := 0; k < rounds; k++ {
					x.Csend(k, buf, 64, 0, 0)
					x.Crecv(k, buf, 64)
				}
				return
			}
			for peer := 1; peer <= peers; peer++ {
				x.Connect(peer)
			}
			for k := 0; k < rounds; k++ {
				for i := 0; i < peers; i++ {
					x.Crecv(k, buf, 64)
				}
				for peer := 1; peer <= peers; peer++ {
					x.Csend(k, buf, 64, peer, 0)
				}
			}
		})
}

// TestRecvLoopAllocs gates host allocations on the NX receive path, which
// unlike wall-clock do not depend on the host.
func TestRecvLoopAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { runRecvLoop(t) })
	if allocs > recvLoopAllocs {
		t.Errorf("receive loop: %.0f allocs, ceiling %d", allocs, recvLoopAllocs)
	}
}
