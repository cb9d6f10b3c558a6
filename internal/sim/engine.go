// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and an ordered event queue. All simulated
// activity — CPU work, bus transfers, DMA engines, network links, and the
// user-level library code of the SHRIMP reproduction — executes as events on
// this clock, so measured latencies and bandwidths are exact and perfectly
// repeatable.
//
// Two execution styles coexist:
//
//   - Plain events: funcs scheduled with Engine.Schedule/At (or the
//     fire-and-forget Post/PostAt fast path), used by hardware models
//     (NIC engines, mesh links, timers).
//   - Processes: stdlib coroutines (Proc, built on iter.Pull) for code that
//     reads naturally as sequential — application programs, library protocol
//     code, daemons. Exactly one of the engine or a single Proc runs at a
//     time, and control passes between them by coroutine switch, so no
//     locking is needed anywhere in the simulation and execution order is
//     fully deterministic.
//
// The event core is performance-engineered for wall-clock speed without
// giving up one bit of determinism (see DESIGN.md "Wall-clock performance"):
// the queue is a typed min-heap holding each (time, seq) key inline, events
// are recycled on a free list instead of allocated per Schedule, canceled
// timers are removed from the heap eagerly rather than riding to their
// deadline, and events scheduled for the current instant bypass the heap on
// a FIFO that preserves the exact (time, seq) firing order the heap would
// have produced. Conds deregister waiters lazily (a wait generation marks
// stale entries), timed waits re-arm a per-proc timer, and the replay
// digest (DigestTracer) folds whole 64-bit words rather than bytes.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from earlier to t.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

// Microseconds reports t as a floating-point microsecond count, the unit the
// paper's figures use.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// event is a scheduled callback. Events with equal deadlines fire in the
// order they were scheduled (seq breaks ties), which makes the simulation
// deterministic.
//
// Events are pooled: after firing or cancellation they return to the
// engine's free list and their generation counter is bumped, so a stale
// Timer handle can never cancel an unrelated recycled event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// index is the event's heap position, or one of the sentinels below.
	index int
	// gen increments every time the event is recycled; Timer handles
	// remember the generation they were issued against.
	gen uint64
}

// index sentinels for events that are not in the heap.
const (
	indexFired = -1 // popped for execution (or freshly recycled)
	indexNowQ  = -2 // waiting in the current-instant FIFO
)

// Timer is a handle to a scheduled event that can be canceled or re-armed.
// The zero Timer is inert: Stop and Pending report false, Reset is a no-op.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
	// fn is the callback captured at Schedule time, kept on the handle so
	// Reset can re-arm after the underlying event was recycled.
	fn func()
}

// Stop cancels the timer if it has not fired, removing the event from the
// queue immediately — a canceled timer costs nothing from this point on.
// It reports whether the timer was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	ev := t.ev
	t.ev = nil
	switch {
	case ev.index >= 0:
		t.eng.queue.remove(ev.index)
		t.eng.recycle(ev)
		return true
	case ev.index == indexNowQ:
		// In the current-instant FIFO: mark canceled (the run loop
		// recycles it when it reaches the head).
		ev.index = indexFired
		ev.fn = nil
		t.eng.nowLive--
		return true
	default:
		return false
	}
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen &&
		(t.ev.index >= 0 || t.ev.index == indexNowQ)
}

// Reset re-arms the timer to fire d from now with its original callback,
// whether it is pending, stopped, or has already fired. It reports whether
// the timer was still pending (and was therefore canceled) before re-arming.
// Resetting a zero or spent handle (no engine or callback) is a no-op that
// reports false rather than a panic.
func (t *Timer) Reset(d time.Duration) bool {
	if t == nil || t.eng == nil || t.fn == nil {
		return false
	}
	wasPending := t.Stop()
	ev := t.eng.post(t.eng.now.Add(d), t.fn)
	t.ev, t.gen = ev, ev.gen
	return wasPending
}

// slot is one event-queue entry. The (at, seq) key is held inline, so
// sifting compares keys without dereferencing the event.
type slot struct {
	at  Time
	seq uint64
	ev  *event
}

// before is the firing order: earlier time first, then scheduling order.
func (s slot) before(o slot) bool {
	return s.at < o.at || (s.at == o.at && s.seq < o.seq)
}

// eventQueue is a binary min-heap of slots ordered by before. Every move
// writes the event's new position to its index field, which is how
// Timer.Stop removes a canceled event eagerly.
type eventQueue []slot

// place stores s at position i and records the position on its event.
func (q eventQueue) place(i int, s slot) {
	q[i] = s
	s.ev.index = i
}

// up sifts s toward the root from the hole at i.
func (q eventQueue) up(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(q[parent]) {
			break
		}
		q.place(i, q[parent])
		i = parent
	}
	q.place(i, s)
}

// down sifts s toward the leaves from the hole at i and reports whether it
// moved.
func (q eventQueue) down(i int, s slot) bool {
	start := i
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(s) {
			break
		}
		q.place(i, q[child])
		i = child
	}
	q.place(i, s)
	return i != start
}

// push inserts ev under its current (at, seq) key.
func (q *eventQueue) push(ev *event) {
	*q = append(*q, slot{})
	q.up(len(*q)-1, slot{at: ev.at, seq: ev.seq, ev: ev})
}

// remove takes the entry at position i out of the heap and returns its
// event; remove(0) pops the earliest.
func (q *eventQueue) remove(i int) *event {
	h := *q
	ev := h[i].ev
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	if i < n && !h.down(i, last) {
		h.up(i, last)
	}
	*q = h
	ev.index = indexFired
	return ev
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	// nowQ is the current-instant FIFO: events scheduled for exactly the
	// current time skip the heap. Everything in nowQ carries a seq larger
	// than any same-instant event still in the heap (heap entries for the
	// current instant were necessarily scheduled before time advanced to
	// it), so draining heap-first at equal times reproduces the exact
	// (at, seq) order a pure heap would give. nowHead indexes the next
	// entry; the slice is reset when it drains.
	nowQ    []*event
	nowHead int
	// nowLive counts non-canceled nowQ entries, for O(1) Idle.
	nowLive int
	// free is the event free list. Events are recycled after firing or
	// cancellation; their gen counter invalidates outstanding Timers.
	free   []*event
	procs  []*Proc
	cur    *Proc // proc currently holding execution, nil in event context
	halted bool
	// tracer is what the hot paths call: the user tracer and the
	// determinism digests composed via TeeTracer (retrace), so neither
	// ever displaces the other.
	tracer Tracer
	user   Tracer // installed with SetTracer
	// digest holds the replay-digest folds attached with AttachDigest; it
	// observes execution alongside any user-installed tracer.
	digest Tracer

	// Stats, exposed for tests and the bench harness.
	EventsRun int64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// retrace recomposes the combined tracer from the user and digest tracers.
func (e *Engine) retrace() {
	e.tracer = NewTeeTracer(e.user, e.digest)
}

// AttachDigest composes a replay-digest fold (usually a *DigestTracer) into
// the engine. It observes every event and dispatch from then on, alongside
// any user tracer and any fold attached before it; SetTracer never
// displaces it.
func (e *Engine) AttachDigest(t Tracer) {
	e.digest = NewTeeTracer(e.digest, t)
	e.retrace()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// QueueLen reports the number of live (non-canceled) events currently
// queued, for tests and diagnostics — with eager timer removal this stays
// bounded by the true amount of pending work, not by cancellation history.
func (e *Engine) QueueLen() int { return len(e.queue) + e.nowLive }

// alloc takes an event from the free list or the allocator.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a dead event to the free list, invalidating Timers.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.index = indexFired
	e.free = append(e.free, ev)
}

// post is the common scheduling path: assign the next seq and enqueue.
// Events for the current instant go to the FIFO, everything else into the
// heap.
func (e *Engine) post(t Time, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now)) //lint:allow transitive-panic causality violation in the event core; no error return could be trusted after it
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	if t == e.now {
		ev.index = indexNowQ
		e.nowQ = append(e.nowQ, ev)
		e.nowLive++
	} else {
		e.queue.push(ev)
	}
	return ev
}

// Schedule arranges for fn to run d from now. d must be non-negative.
// The returned Timer may be used to cancel or re-arm the event; callers
// that never cancel use Post, which allocates no handle (shrimplint's
// discarded-timer rule flags a discarded handle outside tests).
func (e *Engine) Schedule(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic("sim: negative delay") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	ev := e.post(e.now.Add(d), fn)
	return &Timer{eng: e, ev: ev, gen: ev.gen, fn: fn}
}

// At arranges for fn to run at absolute virtual time t, which must not be in
// the past.
func (e *Engine) At(t Time, fn func()) *Timer {
	ev := e.post(t, fn)
	return &Timer{eng: e, ev: ev, gen: ev.gen, fn: fn}
}

// Post arranges for fn to run d from now, without a cancellation handle —
// the allocation-free fast path for fire-and-forget events (process
// wakeups, DMA completions, packet arrivals).
func (e *Engine) Post(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay") //lint:allow transitive-panic API misuse by the caller, not a runtime condition
	}
	e.post(e.now.Add(d), fn)
}

// PostAt is Post at an absolute virtual time.
func (e *Engine) PostAt(t Time, fn func()) {
	e.post(t, fn)
}

// Halt stops the run loop after the current event completes. Pending events
// remain queued; Run may be called again to continue.
func (e *Engine) Halt() { e.halted = true }

// next dequeues the earliest live event, honoring the heap-before-FIFO
// rule at equal times, or returns nil when no events remain.
func (e *Engine) next() *event {
	for {
		if e.nowHead < len(e.nowQ) {
			// FIFO entries are at the current instant; heap entries for
			// the same instant carry smaller seqs and must fire first.
			if len(e.queue) > 0 && e.queue[0].at <= e.now {
				return e.queue.remove(0)
			}
			ev := e.nowQ[e.nowHead]
			e.nowQ[e.nowHead] = nil
			e.nowHead++
			if e.nowHead == len(e.nowQ) {
				e.nowQ = e.nowQ[:0]
				e.nowHead = 0
			}
			if ev.index != indexNowQ {
				// Canceled while queued; reclaim and keep scanning.
				e.recycle(ev)
				continue
			}
			e.nowLive--
			ev.index = indexFired
			return ev
		}
		if len(e.queue) > 0 {
			return e.queue.remove(0)
		}
		return nil
	}
}

// Run executes events until the queue drains, the engine is halted, or every
// remaining event is beyond limit (limit <= 0 means no limit). It returns the
// virtual time at which it stopped.
func (e *Engine) Run(limit Time) Time {
	e.halted = false
	for !e.halted {
		next := e.next()
		if next == nil {
			break
		}
		if limit > 0 && next.at > limit {
			// Hold it for the next Run. The clock advances to limit but
			// never moves backwards: a limit already passed stops here.
			e.requeue(next)
			e.now = max(e.now, limit)
			break
		}
		if next.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = next.at
		e.EventsRun++
		fn := next.fn
		if e.tracer != nil {
			e.tracer.Event(next.at, next.seq)
		}
		e.recycle(next)
		fn()
	}
	return e.now
}

// RunAll executes until no events remain.
func (e *Engine) RunAll() Time { return e.Run(0) }

// Shutdown unwinds every parked process coroutine (daemons and servers
// block forever by design; a long-lived host program releases them here
// once the simulation is over). The engine must not be running. After
// Shutdown the engine is spent: procs are dead and only plain events could
// still execute.
func (e *Engine) Shutdown() {
	if e.cur != nil {
		//lint:allow transitive-panic harness sequencing bug: teardown only runs between simulations
		panic("sim: Shutdown from inside a proc")
	}
	for _, p := range e.procs {
		if p.dead {
			continue
		}
		p.killed = true
		p.next() // resumes inside park(), which panics killSentinel
	}
}

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool {
	return len(e.queue) == 0 && e.nowLive == 0
}

// Stalled returns the names of processes that are parked with no way to
// make progress if the event queue is empty: started, not done, and not
// marked as service procs (daemons legitimately park forever awaiting
// requests). Spawn order, so the list is deterministic.
func (e *Engine) Stalled() []string {
	var out []string
	for _, p := range e.procs {
		if p.done || p.dead || p.service {
			continue
		}
		out = append(out, p.Name)
	}
	return out
}

// DeadlockError is RunChecked's diagnosis when a simulation fails to run
// to completion: which processes were blocked, when, and why the run
// stopped. It turns "the simulation hung" into an actionable report.
type DeadlockError struct {
	At      Time
	Reason  string
	Blocked []string
}

// Error implements error.
func (d *DeadlockError) Error() string {
	list := "none (event livelock)"
	if len(d.Blocked) > 0 {
		list = fmt.Sprintf("%d blocked: %v", len(d.Blocked), d.Blocked)
	}
	return fmt.Sprintf("sim: deadlock at %v (%s); procs %s", d.At, d.Reason, list)
}

// RunChecked is the watchdog run loop: execute events until the queue
// drains or virtual time reaches budget, then diagnose. A drained queue
// with non-service procs still parked means those procs can never run
// again — the classic lost-wakeup deadlock. An exhausted budget with
// events still pending means the run overran (livelock or runaway
// retry). Either way the returned DeadlockError names the blocked procs.
func (e *Engine) RunChecked(budget Time) (Time, error) {
	t := e.Run(budget)
	if !e.Idle() {
		return t, &DeadlockError{At: t, Reason: "time budget exhausted with events still pending", Blocked: e.Stalled()}
	}
	if blocked := e.Stalled(); len(blocked) > 0 {
		return t, &DeadlockError{At: t, Reason: "event queue drained", Blocked: blocked}
	}
	return t, nil
}
