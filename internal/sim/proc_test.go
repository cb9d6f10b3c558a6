package sim

import (
	"errors"
	"testing"
)

func TestProcPanicSurfacesFromRunAll(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(us(1))
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.RunAll()
	}()
	if got != boom {
		t.Fatalf("RunAll recovered %v, want the proc's own panic value %v", got, boom)
	}
}

func TestKillBeforeFirstInstruction(t *testing.T) {
	e := NewEngine()
	ran := false
	p := e.Spawn("victim", func(*Proc) { ran = true })
	p.Kill()
	e.RunAll()
	if ran {
		t.Fatal("a proc killed before its first dispatch ran its body")
	}
	if !p.Done() {
		t.Fatal("killed proc not reported done")
	}

	// Shutdown before the first dispatch unwinds the same way.
	e = NewEngine()
	p = e.Spawn("never-run", func(*Proc) { ran = true })
	e.Shutdown()
	if ran || !p.Done() {
		t.Fatalf("Shutdown before first dispatch: ran=%v done=%v", ran, p.Done())
	}
}

// TestWaitBroadcastSwitchIsAllocationFree enforces the allocation-free
// switch: a Wait/Broadcast rally between two procs allocates nothing once
// the cond and proc wait lists have their backing arrays.
func TestWaitBroadcastSwitchIsAllocationFree(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ball := 0 // 0: ping's turn, 1: pong's turn
	e.Spawn("ping", func(p *Proc) {
		for {
			for ball != 0 {
				c.Wait(p)
			}
			ball = 1
			c.Broadcast()
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for {
			for ball != 1 {
				c.Wait(p)
			}
			ball = 0
			c.Broadcast()
			e.Halt() // one rally per Run
		}
	})
	allocs := testing.AllocsPerRun(1000, func() { e.RunAll() })
	e.Shutdown()
	if allocs != 0 {
		t.Fatalf("Wait/Broadcast rally: %v allocs, want 0", allocs)
	}
}

// TestSignalSwitchIsAllocationFree is the Signal counterpart: popping the
// head waiter keeps the cond's backing array.
func TestSignalSwitchIsAllocationFree(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
		}
	})
	e.Spawn("signaler", func(p *Proc) {
		for {
			p.YieldOnce()
			c.Signal()
			e.Halt()
		}
	})
	allocs := testing.AllocsPerRun(1000, func() { e.RunAll() })
	e.Shutdown()
	if allocs != 0 {
		t.Fatalf("Wait/Signal rally: %v allocs, want 0", allocs)
	}
}
