package sim

import (
	"strings"
	"testing"
	"time"
)

func TestTeeTracerFanOut(t *testing.T) {
	a := NewCountingTracer()
	b := NewCountingTracer()
	tee := NewTeeTracer(a, nil, b)
	tee.Event(10, 1)
	tee.ProcSwitch(10, "p0")
	tee.Event(20, 2)
	for _, ct := range []*CountingTracer{a, b} {
		if ct.Events != 2 {
			t.Errorf("tee leg saw %d events, want 2", ct.Events)
		}
		if ct.Switches["p0"] != 1 {
			t.Errorf("tee leg saw %d switches, want 1", ct.Switches["p0"])
		}
	}
}

func TestNewTeeTracerSimplifies(t *testing.T) {
	if got := NewTeeTracer(); got != nil {
		t.Errorf("empty tee = %v, want nil", got)
	}
	if got := NewTeeTracer(nil, nil); got != nil {
		t.Errorf("all-nil tee = %v, want nil", got)
	}
	a := NewCountingTracer()
	if got := NewTeeTracer(nil, a); got != Tracer(a) {
		t.Errorf("singleton tee = %v, want the tracer itself", got)
	}
	// Nested tees flatten to one level.
	b := NewCountingTracer()
	c := NewCountingTracer()
	nested := NewTeeTracer(NewTeeTracer(a, b), c)
	tee, ok := nested.(*TeeTracer)
	if !ok {
		t.Fatalf("nested tee = %T, want *TeeTracer", nested)
	}
	if len(tee.Tracers()) != 3 {
		t.Errorf("flattened tee has %d legs, want 3", len(tee.Tracers()))
	}
}

// TestDigestWithUserTracer is the regression test for tracer exclusivity:
// a user tracer installed on an engine must keep observing execution with
// a digest attached, and the digest must still be stable.
func TestDigestWithUserTracer(t *testing.T) {
	var observed int64
	scenario := func(d Tracer) {
		eng := NewEngine()
		eng.AttachDigest(d)
		ct := NewCountingTracer()
		eng.SetTracer(ct)
		if eng.Tracer() != Tracer(ct) {
			t.Fatalf("Tracer() = %v, want user tracer", eng.Tracer())
		}
		eng.Spawn("worker", func(p *Proc) {
			p.Sleep(5 * time.Microsecond)
		})
		eng.RunAll()
		observed = ct.Events
	}
	CheckDeterminism(t, scenario)
	if observed == 0 {
		t.Fatal("user tracer observed no events with a digest attached: it was displaced")
	}
}

func TestCountingTracerString(t *testing.T) {
	ct := NewCountingTracer()
	ct.ProcSwitch(100, "zeta")
	ct.ProcSwitch(200, "alpha")
	ct.ProcSwitch(300, "alpha")
	ct.Event(400, 1)
	got := ct.String()
	want := "events=1 last=0.400us switches={alpha:2 zeta:1}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Deterministic across calls regardless of map state.
	for i := 0; i < 10; i++ {
		if again := ct.String(); again != got {
			t.Fatalf("String() unstable: %q vs %q", again, got)
		}
	}
	if !strings.Contains(got, "alpha:2 zeta:1") {
		t.Errorf("switches not rendered in sorted key order: %q", got)
	}
}
