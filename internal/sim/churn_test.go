package sim

import (
	"testing"
	"time"
)

// The canceled-timer leak: Stop must remove the event from the queue
// eagerly, so repeated arm/cancel (the go-back-N sublayer's per-ack pattern)
// cannot grow the heap. Before the fix, every canceled event rode the heap
// to its original deadline and long soaks accumulated tens of thousands of
// dead entries.

func TestTimerChurnBoundedQueue(t *testing.T) {
	e := NewEngine()
	const rounds = 10000
	for i := 0; i < rounds; i++ {
		tm := e.Schedule(time.Second, func() { t.Fatal("canceled timer fired") })
		if !tm.Stop() {
			t.Fatal("Stop on a fresh timer reported not pending")
		}
		if n := e.QueueLen(); n > 1 {
			t.Fatalf("round %d: queue holds %d events after cancel, want 0", i, n)
		}
	}
	if n := e.QueueLen(); n != 0 {
		t.Fatalf("queue holds %d events after %d arm/cancel rounds, want 0", n, rounds)
	}
	e.RunAll()
}

func TestTimerChurnRearmPattern(t *testing.T) {
	// The reliability sublayer's exact pattern: one live timer per flow,
	// stopped and re-armed on every ack. The queue must never hold more
	// than the single live timer (plus the event driving the churn).
	e := NewEngine()
	fired := 0
	var tm *Timer
	arm := func() { tm = e.Schedule(time.Millisecond, func() { fired++ }) }
	arm()
	for i := 0; i < 1000; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {
			tm.Stop()
			arm()
		})
	}
	e.Schedule(500*time.Microsecond, func() {
		if n := e.QueueLen(); n > 502 {
			// 500 churn events still pending + 1 live timer; dead
			// timers must not pile on top.
			t.Fatalf("queue holds %d events mid-churn", n)
		}
	})
	e.RunAll()
	if fired != 1 {
		t.Fatalf("re-armed timer fired %d times, want exactly 1 (the final arm)", fired)
	}
}

func TestEventPoolReuseIsolation(t *testing.T) {
	// A stale Timer handle must not be able to cancel the recycled event
	// that took its slot.
	e := NewEngine()
	stale := e.Schedule(time.Microsecond, func() {})
	e.RunAll() // fires; the event returns to the free list
	ran := false
	fresh := e.Schedule(time.Microsecond, func() { ran = true })
	if stale.Stop() {
		t.Fatal("stale handle reported it stopped something")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer lost its event to a stale Stop")
	}
	e.RunAll()
	if !ran {
		t.Fatal("recycled event did not fire")
	}
}

func TestNowQueueOrdering(t *testing.T) {
	// Events scheduled for the current instant take the FIFO fast path;
	// their firing order against same-instant heap events must still be
	// pure (at, seq) order: heap entries for an instant were scheduled
	// before time advanced to it, so they always fire first.
	e := NewEngine()
	var order []int
	e.Schedule(time.Microsecond, func() { order = append(order, 1) }) // heap, seq 1
	e.Schedule(time.Microsecond, func() {                             // heap, seq 2
		// Runs at t=1us: these two join the now-queue behind heap
		// entry seq 3.
		e.Schedule(0, func() { order = append(order, 4) })
		e.Schedule(0, func() {
			order = append(order, 5)
			e.Schedule(0, func() { order = append(order, 6) })
		})
	})
	e.Schedule(time.Microsecond, func() { order = append(order, 3) }) // heap, seq 3
	e.RunAll()
	want := []int{1, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestNowQueueStopWhileQueued(t *testing.T) {
	// Canceling an event sitting in the current-instant FIFO.
	e := NewEngine()
	ran := false
	e.Schedule(time.Microsecond, func() {
		victim := e.Schedule(0, func() { ran = true })
		if !victim.Stop() {
			t.Fatal("Stop on a now-queued event reported not pending")
		}
		if victim.Pending() {
			t.Fatal("stopped now-queued event still pending")
		}
		if e.QueueLen() != 0 {
			t.Fatalf("queue length %d after cancel, want 0", e.QueueLen())
		}
	})
	e.RunAll()
	if ran {
		t.Fatal("canceled now-queued event ran")
	}
}

func TestRunLimitWithNowQueue(t *testing.T) {
	// A Run limit must stop before heap events beyond it even while
	// now-queue entries were in play earlier in the run.
	e := NewEngine()
	var ran []string
	e.Schedule(time.Microsecond, func() {
		e.Schedule(0, func() { ran = append(ran, "now") })
	})
	e.Schedule(time.Millisecond, func() { ran = append(ran, "late") })
	end := e.Run(Time(10 * 1000)) // 10us
	if end != Time(10*1000) {
		t.Fatalf("Run stopped at %v, want the 10us limit", end)
	}
	if len(ran) != 1 || ran[0] != "now" {
		t.Fatalf("ran %v, want only the now-queue event", ran)
	}
	e.RunAll()
	if len(ran) != 2 {
		t.Fatalf("resumed run executed %v", ran)
	}
}
