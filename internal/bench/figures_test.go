package bench

import (
	"strings"
	"testing"

	"shrimp/internal/cluster"
	"shrimp/internal/sim"
)

// figureEvents pins the engine events each figure sweep executes at
// iters=2, counted by the replay-digest fold. Event counts do not depend on
// the host, so this is an exact gate: a change that adds, drops or
// reorders work on any ping-pong path fails here until the constant is
// updated, with the reason, in the same change.
var figureEvents = map[string]int64{
	"fig3": 21700,
	"fig4": 210555,
	"fig5": 26553,
	"fig7": 22977,
	"fig8": 5118,
}

// TestFullFigureGeneration exercises the complete figure builders (the code
// paths cmd/shrimpbench runs), checking the engine events each sweep
// executes and structural invariants of the resulting tables rather than
// re-asserting calibration (the per-figure shape tests do that).
func TestFullFigureGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	wantSeries := map[string]int{"fig3": 4, "fig4": 6, "fig5": 2, "fig7": 3, "fig8": 2}
	for _, build := range []func(*env, int) *Figure{fig3, fig4, fig5, fig7, fig8} {
		dt := sim.NewDigestTracer()
		e := &env{cfg: cluster.Config{Auto: dt}}
		f := build(e, 2)
		e.close()
		if dt.Events != figureEvents[f.ID] {
			t.Errorf("%s: %d engine events, want %d", f.ID, dt.Events, figureEvents[f.ID])
		}
		if len(f.Serie) != wantSeries[f.ID] {
			t.Errorf("%s: %d series, want %d", f.ID, len(f.Serie), wantSeries[f.ID])
		}
		for _, s := range f.Serie {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: no points", f.ID, s.Label)
			}
			for _, p := range s.Points {
				if p.LatencyUS <= 0 {
					t.Errorf("%s/%s@%d: nonpositive latency %f", f.ID, s.Label, p.Size, p.LatencyUS)
				}
				if p.Size > 0 && f.ID != "fig8" && p.MBPerSec <= 0 {
					t.Errorf("%s/%s@%d: nonpositive bandwidth", f.ID, s.Label, p.Size)
				}
			}
		}
		// Tables and CSV render without panicking and contain each label.
		lt := f.LatencyTable(64)
		bt := f.BandwidthTable(64)
		csv := f.CSV()
		for _, s := range f.Serie {
			if !strings.Contains(lt, s.Label) && !strings.Contains(bt, s.Label) {
				t.Errorf("%s: label %q missing from tables", f.ID, s.Label)
			}
			if !strings.Contains(csv, ","+s.Label+",") {
				t.Errorf("%s: label %q missing from CSV", f.ID, s.Label)
			}
		}
	}
}

// TestSeriesHelpers covers the small accessors.
func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", Points: []Point{{Size: 4, LatencyUS: 1}}}
	if _, ok := s.At(4); !ok {
		t.Error("At(4) missed")
	}
	if _, ok := s.At(8); ok {
		t.Error("At(8) found phantom point")
	}
	f := &Figure{ID: "f", Serie: []Series{s}}
	if f.Get("x") == nil || f.Get("y") != nil {
		t.Error("Get misbehaved")
	}
	if len(AllSizes()) < len(LatencySizes) {
		t.Error("AllSizes lost entries")
	}
	prev := -1
	for _, v := range AllSizes() {
		if v <= prev {
			t.Error("AllSizes not sorted unique")
		}
		prev = v
	}
}

// TestMeasurementDeterminism: identical benchmark invocations must yield
// bit-identical results — the property that makes every number in
// EXPERIMENTS.md exactly reproducible.
func TestMeasurementDeterminism(t *testing.T) {
	l1, b1 := VMMCPingPong(AU1copy, 1024, 5)
	l2, b2 := VMMCPingPong(AU1copy, 1024, 5)
	if l1 != l2 || b1 != b2 {
		t.Fatalf("nondeterministic measurement: (%v,%v) vs (%v,%v)", l1, b1, l2, b2)
	}
	r1 := SRPCNull(256, 4)
	r2 := SRPCNull(256, 4)
	if r1 != r2 {
		t.Fatalf("nondeterministic SRPC measurement: %v vs %v", r1, r2)
	}
}

// vmmcPingPongAllocs is the allocation ceiling for one AU-1copy 1 KB
// ping-pong point (world boot included), about 2% above the measured
// 1216; the race detector's instrumentation adds about 16.
const vmmcPingPongAllocs = 1240

// TestVMMCPingPongAllocs gates host allocations on the figure path, which
// unlike wall-clock do not depend on the host.
func TestVMMCPingPongAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { VMMCPingPong(AU1copy, 1024, 8) })
	if allocs > vmmcPingPongAllocs {
		t.Errorf("one ping-pong point: %.0f allocs, ceiling %d", allocs, vmmcPingPongAllocs)
	}
}
