package bench

import (
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/nx"
	"shrimp/internal/sim"
	"shrimp/internal/socket"
	"shrimp/internal/sunrpc"
)

// Replay-divergence checks over the paper's benchmark drivers: each figure's
// measurement scenario is run twice and the complete event stream compared.
// These are the runtime oracle behind shrimplint's static rules — if a
// nondeterminism bug (map-order iteration, unseeded randomness, wall-clock
// leakage) creeps back into the stack under any driver, the digests diverge.

// checkDeterminism is sim.CheckDeterminism over a driver: each run gets an
// env that attaches that run's digest fold to every world it builds.
func checkDeterminism(t *testing.T, driver func(e *env)) {
	t.Helper()
	sim.CheckDeterminism(t, func(d sim.Tracer) {
		e := &env{cfg: cluster.Config{Auto: d}}
		defer e.close()
		driver(e)
	})
}

func TestFig3VMMCDeterministic(t *testing.T) {
	for _, strat := range []string{AU1copy, AU2copy, DU0copy, DU1copy} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			checkDeterminism(t, func(e *env) { vmmcPingPong(e, strat, 64, 4) })
		})
	}
}

func TestFig5VRPCDeterministic(t *testing.T) {
	for _, mode := range []sunrpc.Mode{sunrpc.ModeAU, sunrpc.ModeDU} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			checkDeterminism(t, func(e *env) { vrpcPingPong(e, mode, 64, 4) })
		})
	}
}

func TestFig7SocketDeterministic(t *testing.T) {
	for _, mode := range []socket.Mode{socket.ModeAU2, socket.ModeDU1, socket.ModeDU2} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			checkDeterminism(t, func(e *env) { socketPingPong(e, mode, 64, 4) })
		})
	}
}

// TestFig4NXDeterministic covers the NX library path, whose receive scan
// iterated a map before the connList fix.
func TestFig4NXDeterministic(t *testing.T) {
	checkDeterminism(t, func(e *env) { nxPingPong(e, nx.ProtoDefault, 64, 4) })
}
