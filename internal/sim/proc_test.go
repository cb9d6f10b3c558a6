package sim

import (
	"errors"
	"slices"
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

// TestWaitTimeoutSwitchIsAllocationFree: a timed wait re-arms the proc's
// own timer, so it allocates nothing whether it times out or is signaled.
func TestWaitTimeoutSwitchIsAllocationFree(t *testing.T) {
	t.Run("timed out", func(t *testing.T) {
		e := NewEngine()
		c := NewCond(e)
		e.Spawn("waiter", func(p *Proc) {
			for {
				if !c.WaitTimeout(p, us(1)) {
					t.Error("an unsignaled wait reported a signal")
				}
				e.Halt()
			}
		})
		allocs := testing.AllocsPerRun(1000, func() { e.RunAll() })
		e.Shutdown()
		if allocs != 0 {
			t.Fatalf("timed-out wait: %v allocs, want 0", allocs)
		}
	})
	t.Run("signaled", func(t *testing.T) {
		e := NewEngine()
		c := NewCond(e)
		e.Spawn("waiter", func(p *Proc) {
			for {
				if c.WaitTimeout(p, us(1000)) {
					t.Error("a signaled wait reported a timeout")
				}
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
		// Between rallies: the waiter's wake and pending timer, and the
		// signaler's yield. Stopped timers must not pile up behind them.
		if n := e.QueueLen(); n != 3 {
			t.Errorf("%d events queued between rallies, want 3", n)
		}
		e.Shutdown()
		if allocs != 0 {
			t.Fatalf("signaled timed wait: %v allocs, want 0", allocs)
		}
	})
}

// wakeLog records what each proc did, in order.
type wakeLog []string

func (w *wakeLog) add(p *Proc, what string) { *w = append(*w, p.Name+":"+what) }

// TestMultiCondRewaitOrder: a proc woken through one cond of a multi-cond
// wait leaves a stale entry at the head of the other. When it re-waits on
// that other cond behind a second proc, it must wake after that proc,
// exactly as if it had been removed eagerly.
func TestMultiCondRewaitOrder(t *testing.T) {
	e := NewEngine()
	a, b := NewCond(e), NewCond(e)
	var log wakeLog
	e.Spawn("p", func(p *Proc) {
		WaitAny(p, a, b)
		log.add(p, "a")
		b.Wait(p)
		log.add(p, "b")
	})
	e.Spawn("q", func(p *Proc) {
		b.Wait(p)
		log.add(p, "b")
	})
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(us(1))
		a.Signal() // wakes p; p's entry on b goes stale
		p.Sleep(us(1))
		b.Signal() // q first: p re-waited behind it
		p.Sleep(us(1))
		b.Signal()
	})
	e.RunAll()
	want := wakeLog{"p:a", "q:b", "p:b"}
	if !slices.Equal(log, want) {
		t.Fatalf("wake order %v, want %v", log, want)
	}
}

// TestSignalSkipsStaleHeads: Signal passes over entries whose wait already
// ended and wakes the first live waiter; with only stale entries it wakes
// nobody and a later waiter still gets the next signal.
func TestSignalSkipsStaleHeads(t *testing.T) {
	e := NewEngine()
	a, b := NewCond(e), NewCond(e)
	var log wakeLog
	for _, name := range []string{"p1", "p2"} {
		e.Spawn(name, func(p *Proc) {
			WaitAny(p, a, b)
			log.add(p, "ab")
		})
	}
	e.Spawn("q", func(p *Proc) {
		p.Sleep(us(1))
		b.Wait(p)
		log.add(p, "b")
	})
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(us(2))
		a.Broadcast() // p1 and p2 wake; both leave stale heads on b
		p.Sleep(us(1))
		b.Signal() // skips both, wakes q
		p.Sleep(us(1))
		b.Signal() // nobody left
	})
	e.RunAll()
	want := wakeLog{"p1:ab", "p2:ab", "q:b"}
	if !slices.Equal(log, want) {
		t.Fatalf("wake order %v, want %v", log, want)
	}
	if len(b.waiters) != 0 {
		t.Fatalf("b still holds %d entries after signaling past them", len(b.waiters))
	}
}

// TestStaleWaitersStayBounded: 10k wakes through one cond of a two-cond
// wait leave a stale entry on the other cond each time; compaction keeps
// that never-signaled cond's list from growing with them.
func TestStaleWaitersStayBounded(t *testing.T) {
	e := NewEngine()
	a, idle := NewCond(e), NewCond(e)
	const wakes = 10_000
	woken := 0
	e.Spawn("waiter", func(p *Proc) {
		for woken < wakes {
			WaitAny(p, a, idle)
			woken++
		}
	})
	e.Spawn("signaler", func(p *Proc) {
		for woken < wakes {
			p.YieldOnce()
			a.Signal()
		}
	})
	e.RunAll()
	if woken != wakes {
		t.Fatalf("%d wakes, want %d", woken, wakes)
	}
	if n := cap(idle.waiters); n > 4 {
		t.Fatalf("never-signaled cond grew to capacity %d after %d stale entries", n, wakes)
	}
}

// TestMultiCondWaitEndings: an interrupt, a kill and a timeout that end a
// two-cond wait each leave the proc off both conds: a later signal on
// either wakes the proc queued behind it, and the ended wait does not
// wake again.
func TestMultiCondWaitEndings(t *testing.T) {
	for _, ending := range []string{"interrupt", "kill", "timeout"} {
		t.Run(ending, func(t *testing.T) {
			e := NewEngine()
			a, b := NewCond(e), NewCond(e)
			var log wakeLog
			victim := e.Spawn("victim", func(p *Proc) {
				if ending == "timeout" {
					if !WaitAnyTimeout(p, us(2), a, b) {
						t.Error("the wait was not reported as timed out")
					}
				} else {
					WaitAny(p, a, b)
				}
				log.add(p, "returned")
				p.Sleep(us(10))
				log.add(p, "exit")
			})
			for _, c := range []struct {
				name string
				cond *Cond
			}{{"qa", a}, {"qb", b}} {
				e.Spawn(c.name, func(p *Proc) {
					p.Sleep(us(1))
					c.cond.Wait(p)
					log.add(p, "woken")
				})
			}
			e.Spawn("driver", func(p *Proc) {
				p.Sleep(us(2))
				switch ending {
				case "interrupt":
					victim.Interrupt(func(v *Proc) { log.add(v, "handler") })
				case "kill":
					victim.Kill()
				}
				p.Sleep(us(1))
				b.Signal()
				p.Sleep(us(1))
				a.Signal()
			})
			e.RunAll()
			var want wakeLog
			switch ending {
			case "interrupt":
				want = wakeLog{"victim:handler", "victim:returned", "qb:woken", "qa:woken", "victim:exit"}
			case "kill":
				want = wakeLog{"qb:woken", "qa:woken"}
			case "timeout":
				want = wakeLog{"victim:returned", "qb:woken", "qa:woken", "victim:exit"}
			}
			if !slices.Equal(log, want) {
				t.Fatalf("log %v, want %v", log, want)
			}
		})
	}
}
