// Snapshot support: the engine-side surface internal/snap builds on. A
// checkpointed world is data state plus a deterministic rebuild recipe, so
// the engine itself only has to expose three things — a way to drain the
// current instant to a quiescent frontier (Settle), a faithful description
// of what is still pending (EventStamps, ProcSummaries), and a guarded way
// to fast-forward a freshly rebuilt engine's clock onto a captured one
// (RestoreClock). Callbacks are never serialized: a restored world re-posts
// them by re-running the same constructors, and the stamp parity check in
// internal/snap proves the rebuild consumed the exact same (time, seq)
// schedule as the original.
package sim

import (
	"fmt"
	"sort"
)

// Settle executes every event at the current instant, including cascades
// that post further same-instant events, and stops as soon as the earliest
// pending event lies in the future. It is the canonical post-boot quiesce:
// after cluster construction the t=0 spawn/dispatch frontier drains, daemon
// procs park at their service loops, and only recipe-scheduled future work
// (fault plans, timers) remains queued. Virtual time does not advance.
func (e *Engine) Settle() Time {
	e.halted = false
	for !e.halted {
		if e.nowLive == 0 && (len(e.queue) == 0 || e.queue[0].at > e.now) {
			break
		}
		next := e.next()
		if next == nil {
			break
		}
		if next.at > e.now {
			// A canceled-FIFO scan can surface a future heap event; put it
			// back — Settle never advances the clock.
			e.requeue(next)
			break
		}
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

// requeue returns a dequeued-but-unexecuted event to the queue. The heap
// is right even for an event at the current instant: its seq is smaller
// than any still in the FIFO, and next drains the heap first at equal
// times.
func (e *Engine) requeue(ev *event) {
	e.queue.push(ev)
}

// Clock returns the current virtual time and the scheduling sequence
// counter. Together they pin an engine's position in its deterministic
// schedule: two engines with equal clocks that run equal state produce
// byte-identical event streams from here on.
func (e *Engine) Clock() (Time, uint64) { return e.now, e.seq }

// RestoreClock fast-forwards the clock and sequence counter onto a captured
// world's values. It is only legal on an engine that is not running a proc
// and whose own schedule is a prefix of the captured one: time and seq may
// only move forward. Pending events keep their original stamps, which is
// exactly right — the captured world posted them at those stamps too.
func (e *Engine) RestoreClock(now Time, seq uint64) error {
	if e.cur != nil {
		return fmt.Errorf("sim: RestoreClock from inside a proc")
	}
	if now < e.now || seq < e.seq {
		return fmt.Errorf("sim: RestoreClock moving backwards (now %v->%v, seq %d->%d)",
			e.now, now, e.seq, seq)
	}
	e.now = now
	e.seq = seq
	return nil
}

// EventStamp identifies one pending event by its deterministic schedule
// position. Callbacks are deliberately absent: stamps exist to prove that a
// rebuilt world re-posted the same schedule, not to carry code.
type EventStamp struct {
	At  Time
	Seq uint64
}

// EventStamps returns the (time, seq) stamps of every live pending event in
// firing order. Two worlds whose recipes consumed identical schedules have
// identical stamp lists; internal/snap uses the comparison as its
// recipe-drift tripwire.
func (e *Engine) EventStamps() []EventStamp {
	out := make([]EventStamp, 0, len(e.queue)+e.nowLive)
	for _, s := range e.queue {
		out = append(out, EventStamp{At: s.at, Seq: s.seq})
	}
	for i := e.nowHead; i < len(e.nowQ); i++ {
		if ev := e.nowQ[i]; ev.index == indexNowQ {
			out = append(out, EventStamp{At: ev.at, Seq: ev.seq})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// ProcSummary is one process's park-state as a snapshot sees it: its name
// and whether it has finished, been killed, or is a service loop parked
// awaiting work. Goroutine continuations are not serializable, so this is
// also the capture-safety contract: a world checkpoints cleanly only when
// every live proc is a service proc (rebuilt fresh by the recipe, parked at
// a loop-invariant point) — anything else still holds un-rebuildable stack
// state, and EligibleForSnapshot names it.
type ProcSummary struct {
	Name    string
	Done    bool
	Dead    bool
	Service bool
}

// ProcSummaries lists every spawned proc in spawn order.
func (e *Engine) ProcSummaries() []ProcSummary {
	out := make([]ProcSummary, 0, len(e.procs))
	for _, p := range e.procs {
		out = append(out, ProcSummary{Name: p.Name, Done: p.done, Dead: p.dead, Service: p.service})
	}
	return out
}

// EligibleForSnapshot reports whether the engine is at a capture-safe
// point: no event at the current instant is pending (Settle first) and no
// non-service proc is still holding goroutine state. The returned names are
// the offenders when not eligible.
func (e *Engine) EligibleForSnapshot() (bool, []string) {
	var bad []string
	if e.nowLive > 0 || (len(e.queue) > 0 && e.queue[0].at <= e.now) {
		bad = append(bad, "(unsettled current instant)")
	}
	bad = append(bad, e.Stalled()...)
	return len(bad) == 0, bad
}
