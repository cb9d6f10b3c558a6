//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"slices"
	"time"
)

// Proc is a simulated sequential process: a stdlib coroutine (iter.Pull)
// that the engine resumes and the proc suspends.
//
// Exactly one of the engine's event loop or a single Proc runs at any
// instant. Control transfers by coroutine switch — the engine resumes a
// proc with next, the proc hands control back with yield — so a Proc may
// freely touch engine and model state while it runs: no other code can be
// executing concurrently. The switch is a direct goroutine-to-goroutine
// handoff that never enters the Go scheduler.
//
// Procs advance virtual time with Sleep/Delay, and block on Conds. Code
// running inside a Proc must only return to the engine through these calls.
type Proc struct {
	Name string

	eng *Engine
	// next resumes the coroutine until its next yield (or until the body
	// returns); yield, valid only inside the body, suspends it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	dead  bool // coroutine body exited

	wakePending bool // an unpark event is already scheduled
	killed      bool // Shutdown/Kill has asked the body to unwind
	service     bool // daemon-style proc: excluded from deadlock diagnosis

	// waiting is set while the proc is blocked on one or more conds.
	// waitGen names the current wait: each cond entry records it, and
	// ending the wait bumps it, which turns every entry of the wait stale
	// at once instead of walking the conds to remove them.
	waiting bool
	waitGen uint64

	// timeout is the timed-wait timer, re-armed by every WaitAnyTimeout;
	// its callback, built once at Spawn, sets timedOut.
	timeout  Timer
	timedOut bool

	// wake and redispatch are the proc's two wakeup callbacks, built once
	// at Spawn so the hot paths (unpark, Sleep, YieldOnce) schedule them
	// without allocating a closure per call.
	wake       func() // clears wakePending, then dispatches
	redispatch func() // dispatches unconditionally (sleep timers)

	// Interrupts: handlers that should run in this proc's context at its
	// next yield point (used by the kernel signal machinery).
	pendingInterrupts []func(*Proc)
	interruptsMasked  bool
}

// killSentinel unwinds a proc body during Kill and Engine.Shutdown.
type killSentinel struct{}

// Spawn creates a process and schedules its first execution at the current
// time. fn runs in the process context; when fn returns the process is done.
// A panic in fn propagates out of the Engine.Run (or Shutdown) call that
// resumed the proc, with its original value, and leaves the engine spent;
// only the kill sentinel is absorbed.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		Name: name,
		eng:  e,
	}
	p.wake = func() {
		p.wakePending = false
		e.dispatch(p)
	}
	p.redispatch = func() {
		if p.dead {
			return
		}
		e.dispatch(p)
	}
	p.timeout = Timer{eng: e, fn: func() {
		if p.waiting {
			p.timedOut = true
			p.endWait()
			p.unpark()
		}
	}}
	e.procs = append(e.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.dead = true
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r) //lint:allow transitive-panic re-propagating a genuine failure from a simulated process body; iter.Pull hands it to the resumer
				}
			}
			p.done = true
		}()
		if p.killed {
			// Killed before its first instruction ran: unwind without
			// executing any of the body.
			panic(killSentinel{}) //lint:allow transitive-panic the kill-unwind mechanism itself: caught by the recover above, never escapes
		}
		fn(p)
	})
	e.Post(0, p.redispatch)
	return p
}

// dispatch hands control to p until its next yield. Runs in engine context.
func (e *Engine) dispatch(p *Proc) {
	if p.dead {
		return
	}
	if e.tracer != nil {
		e.tracer.ProcSwitch(e.now, p.Name)
	}
	prev := e.cur
	e.cur = p
	p.next()
	e.cur = prev
}

// park yields control back to the engine. Must be called from p's body.
// The proc will not run again until something schedules an unpark.
func (p *Proc) park() {
	p.yield(struct{}{})
	if p.killed {
		panic(killSentinel{}) //lint:allow transitive-panic controlled unwind of a killed proc; the engine recovers the sentinel
	}
	p.runPendingInterrupts()
}

// unpark schedules the proc to resume at the current virtual time. Safe to
// call from engine context or from another proc's context. Idempotent while
// a wake is already pending.
func (p *Proc) unpark() {
	if p.wakePending || p.dead {
		return
	}
	p.wakePending = true
	p.eng.Post(0, p.wake)
}

// Kill asks the proc to unwind (via the kill sentinel) at its next
// scheduling point, as when its node crashes mid-run. Pending waits are
// abandoned; the body never runs another instruction. Idempotent; no-op
// on a proc that already exited. Must not be called by the proc on
// itself — return or panic instead.
func (p *Proc) Kill() {
	if p.dead || p.killed {
		return
	}
	if p.eng.cur == p {
		//lint:allow transitive-panic engine discipline bug: self-kill would deadlock the scheduler
		panic(fmt.Sprintf("sim: proc %q cannot Kill itself", p.Name))
	}
	p.killed = true
	p.endWait()
	p.unpark()
}

// MarkService excludes the proc from Engine.Stalled's deadlock diagnosis:
// daemon-style procs legitimately park forever waiting for requests.
func (p *Proc) MarkService() { p.service = true }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep advances virtual time by d from the proc's perspective: the proc
// yields and resumes exactly d later. Models both CPU busy-time and idle
// waiting; the distinction is drawn by the caller (see kernel.CPU).
func (p *Proc) Sleep(d time.Duration) {
	p.checkCurrent()
	if d < 0 {
		panic("sim: negative sleep") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	if d == 0 {
		return
	}
	p.eng.Post(d, p.redispatch)
	p.park()
}

// YieldOnce lets all other events scheduled at the current instant run, then
// resumes. Useful in tests to establish ordering.
func (p *Proc) YieldOnce() {
	p.checkCurrent()
	p.eng.Post(0, p.redispatch)
	p.park()
}

func (p *Proc) checkCurrent() {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: proc %q used outside its own context", p.Name)) //lint:allow transitive-panic coroutine-discipline violation; continuing would corrupt virtual time
	}
}

// Interrupt queues fn to run in p's context at its next yield point (or
// immediately unparks it if it is blocked on a Cond). If the proc has masked
// interrupts, fn stays queued until unmasked.
func (p *Proc) Interrupt(fn func(*Proc)) {
	p.pendingInterrupts = append(p.pendingInterrupts, fn)
	if p.waiting && !p.interruptsMasked {
		// Wake the proc out of its cond wait so the handler runs promptly.
		p.endWait()
		p.unpark()
	}
}

// beginWait enqueues p on every cond under a fresh wait generation.
func (p *Proc) beginWait(conds []*Cond) {
	p.waiting = len(conds) > 0
	for _, c := range conds {
		c.enqueue(p)
	}
}

// endWait ends the current cond wait, if any: bumping the generation
// makes every entry it left on its conds stale, and Signal, Broadcast and
// enqueue's compaction drop stale entries as they meet them.
func (p *Proc) endWait() {
	if p.waiting {
		p.waiting = false
		p.waitGen++
	}
}

// MaskInterrupts defers queued and future interrupt handlers until
// UnmaskInterrupts is called.
func (p *Proc) MaskInterrupts() { p.interruptsMasked = true }

// UnmaskInterrupts re-enables interrupt delivery and runs any queued
// handlers immediately in the proc's context.
func (p *Proc) UnmaskInterrupts() {
	p.interruptsMasked = false
	p.runPendingInterrupts()
}

func (p *Proc) runPendingInterrupts() {
	if p.interruptsMasked {
		return
	}
	for len(p.pendingInterrupts) > 0 {
		fn := p.pendingInterrupts[0]
		p.pendingInterrupts = p.pendingInterrupts[1:]
		fn(p)
	}
}

// A Cond is a condition variable for procs. Waiters are woken in FIFO order.
// As with sync.Cond, waiters must re-check their predicate after waking.
//
// Deregistration is lazy: a proc whose wait ended (woken through another
// cond, timed out, interrupted or killed) leaves a stale entry behind
// rather than being searched out of every cond it waited on. Wakeups skip
// stale entries, so the order among live waiters is exactly FIFO.
type Cond struct {
	eng     *Engine
	waiters []waiter
}

// waiter is one cond entry: the proc and the wait generation it was
// enqueued under. It is live while the proc is still in that wait.
type waiter struct {
	p   *Proc
	gen uint64
}

func (w waiter) live() bool { return w.p.waiting && w.p.waitGen == w.gen }

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// enqueue appends p under its current wait generation. A full waiter
// slice is first compacted in place, and it grows only when every entry is
// live, so stale entries never make it grow: its capacity stays
// proportional to the peak number of live waiters.
func (c *Cond) enqueue(p *Proc) {
	if len(c.waiters) == cap(c.waiters) {
		live := c.waiters[:0]
		for _, w := range c.waiters {
			if w.live() {
				live = append(live, w)
			}
		}
		clear(c.waiters[len(live):])
		c.waiters = live
	}
	c.waiters = append(c.waiters, waiter{p: p, gen: p.waitGen})
}

// Wait blocks p until the cond is signaled (or p is interrupted). Callers
// must loop: for !pred() { c.Wait(p) }.
func (c *Cond) Wait(p *Proc) { WaitAny(p, c) }

// WaitAny blocks p until any one of the conds is signaled (or p is
// interrupted). As with Wait, callers re-check predicates after waking.
func WaitAny(p *Proc, conds ...*Cond) {
	p.checkCurrent()
	if len(p.pendingInterrupts) > 0 && !p.interruptsMasked {
		p.runPendingInterrupts()
		return
	}
	p.beginWait(conds)
	p.park()
	p.endWait()
}

// WaitTimeout blocks like Wait but gives up after d. It reports whether the
// wait timed out (true) rather than being signaled.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	return WaitAnyTimeout(p, d, c)
}

// WaitAnyTimeout blocks p until any one of the conds is signaled or d
// elapses, whichever is first. It reports whether the wait timed out
// (true) rather than being signaled. Callers re-check predicates after
// waking, as with WaitAny. The deadline is the proc's own re-armed timer,
// so timed waits do not nest: an interrupt handler that starts one while
// interrupting another re-arms it, and the outer wait then reports the
// inner one's outcome.
func WaitAnyTimeout(p *Proc, d time.Duration, conds ...*Cond) bool {
	p.checkCurrent()
	if len(p.pendingInterrupts) > 0 && !p.interruptsMasked {
		p.runPendingInterrupts()
		return false
	}
	p.timedOut = false
	p.timeout.Reset(d)
	p.beginWait(conds)
	p.park()
	p.endWait()
	p.timeout.Stop()
	return p.timedOut
}

// Signal wakes the longest-waiting proc, if any, dropping the stale
// entries ahead of it.
func (c *Cond) Signal() {
	for i, w := range c.waiters {
		if w.live() {
			c.waiters = slices.Delete(c.waiters, 0, i+1)
			w.p.endWait()
			w.p.unpark()
			return
		}
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Broadcast wakes every waiting proc in FIFO order and empties the list,
// keeping its backing array: unpark only posts events, so nothing
// enqueues meanwhile.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		if w.live() {
			w.p.endWait()
			w.p.unpark()
		}
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}
