package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// toyScenario builds a small engine with interacting procs and timers,
// attaches d, and runs it to completion.
func toyScenario(d Tracer) {
	e := NewEngine()
	e.AttachDigest(d)
	c := NewCond(e)
	total := 0
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				p.Sleep(time.Duration(i+1) * time.Microsecond)
				total += i
				c.Broadcast()
			}
		})
	}
	e.Spawn("watcher", func(p *Proc) {
		for total < 12 {
			c.Wait(p)
		}
	})
	e.Schedule(5*time.Microsecond, func() {})
	e.RunAll()
	e.Shutdown()
}

// digestOf runs scenario once with a fresh fold and returns its sum.
func digestOf(scenario func(d Tracer)) uint64 {
	d := NewDigestTracer()
	scenario(d)
	return d.Sum()
}

// oneEvent builds an engine, attaches d, and runs a single event at.
func oneEvent(d Tracer, at time.Duration) {
	e := NewEngine()
	e.AttachDigest(d)
	e.Schedule(at, func() {})
	e.RunAll()
}

func TestCheckDeterminismPasses(t *testing.T) {
	CheckDeterminism(t, toyScenario)
}

func TestDigestObservesExecution(t *testing.T) {
	d := digestOf(toyScenario)
	if d == 0 || d == fnvOffset64 {
		t.Fatalf("digest %#x looks like nothing was hashed", d)
	}
	if digestOf(toyScenario) != d {
		t.Fatal("identical scenario produced different digests")
	}
}

func TestDigestDistinguishesSchedules(t *testing.T) {
	a := digestOf(func(d Tracer) { oneEvent(d, time.Microsecond) })
	b := digestOf(func(d Tracer) { oneEvent(d, 2*time.Microsecond) })
	if a == b {
		t.Fatal("different event times hashed to the same digest")
	}
}

// TestDigestCoversMultipleEngines: one fold attached to two engines digests
// both of them.
func TestDigestCoversMultipleEngines(t *testing.T) {
	one := digestOf(func(d Tracer) { oneEvent(d, time.Microsecond) })
	two := digestOf(func(d Tracer) {
		for i := 0; i < 2; i++ {
			oneEvent(d, time.Microsecond)
		}
	})
	if one == two {
		t.Fatal("a scenario building two engines digested the same as one")
	}
}

// fakeTB captures Fatalf so the failure paths can be exercised.
type fakeTB struct {
	failed bool
	msg    string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}

func TestCheckDeterminismCatchesDivergence(t *testing.T) {
	// A scenario whose schedule depends on state carried across runs —
	// exactly the kind of leak the harness exists to catch.
	skew := time.Microsecond
	f := &fakeTB{}
	CheckDeterminism(f, func(d Tracer) {
		oneEvent(d, skew)
		skew += time.Microsecond
	})
	if !f.failed {
		t.Fatal("divergent scenario was not reported")
	}
	if !strings.Contains(f.msg, "replay divergence") {
		t.Fatalf("divergence failure carried the wrong message: %q", f.msg)
	}
}

// TestCheckDeterminismRejectsUnattachedDigest: a scenario that builds and
// runs an engine but never attaches the fold would compare two empty
// digests and pass; the check must fail it instead.
func TestCheckDeterminismRejectsUnattachedDigest(t *testing.T) {
	runs := 0
	f := &fakeTB{}
	CheckDeterminism(f, func(Tracer) {
		runs++
		e := NewEngine()
		e.Schedule(time.Microsecond, func() {})
		e.RunAll()
	})
	if !f.failed {
		t.Fatal("a scenario that attached no digest passed the determinism check")
	}
	if !strings.Contains(f.msg, "attached no digest") {
		t.Fatalf("failure message %q does not name the missing digest", f.msg)
	}
	if runs != 1 {
		t.Fatalf("scenario ran %d times after the first run saw nothing, want 1", runs)
	}
}

// TestDigestFoldPinned pins the word fold of a fixed stream, so a change to
// the fold (or to what it hashes) is a visible test failure rather than a
// silent shift of every printed digest.
func TestDigestFoldPinned(t *testing.T) {
	d := NewDigestTracer()
	d.Event(1000, 1)
	d.ProcSwitch(1000, "worker0")
	d.ProcSwitch(2500, "lg-send-0-1")
	d.Event(2500, 7)
	if got, want := d.Sum(), uint64(0x198ae3df8201fc02); got != want {
		t.Fatalf("toy stream digest %#016x, want %#016x", got, want)
	}
	if d.Events != 2 || d.Switches != 2 {
		t.Fatalf("tallied %d events and %d switches, want 2 and 2", d.Events, d.Switches)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d.Event(3000, 8)
		d.ProcSwitch(3000, "lg-send-0-1")
	}); allocs != 0 {
		t.Fatalf("folding allocated %v times per event and switch, want 0", allocs)
	}
}

// TestDigestSwitchNames: every byte of a proc name counts, including bytes
// past the first word and trailing zero bytes.
func TestDigestSwitchNames(t *testing.T) {
	sum := func(name string) uint64 {
		d := NewDigestTracer()
		d.ProcSwitch(5, name)
		return d.Sum()
	}
	pairs := [][2]string{
		{"lg-send-0-1", "lg-send-0-2"},               // differ at byte 10
		{"worker-0123456789a", "worker-0123456789b"}, // differ in the third word
		{"abcdefgh", "abcdefgh\x00"},                 // full word, then an empty vs a zero tail
		{"ab", "ab\x00"},
		{"", "\x00"},
	}
	for _, p := range pairs {
		if sum(p[0]) == sum(p[1]) {
			t.Errorf("switches to %q and %q fold to the same digest", p[0], p[1])
		}
	}
}
