package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRunLimitNeverRewinds: a Run whose limit is already behind the clock
// stops at once without moving the clock backwards, and the held event
// keeps its place in the firing order.
func TestRunLimitNeverRewinds(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(us(10), func() { order = append(order, "10us") })
	e.Schedule(us(20), func() { order = append(order, "20us") })
	if got := e.Run(Time(us(10))); got != Time(us(10)) {
		t.Fatalf("Run(10us) stopped at %v", got)
	}
	if got := e.Run(Time(us(5))); got != Time(us(10)) {
		t.Fatalf("Run(5us) after reaching 10us returned %v, want 10us", got)
	}
	if e.Now() != Time(us(10)) {
		t.Fatalf("clock rewound to %v", e.Now())
	}
	e.Post(0, func() { order = append(order, fmt.Sprintf("post@%v", e.Now())) })
	e.RunAll()
	want := []string{"10us", "post@10.000us", "20us"}
	if !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestRunLimitHoldsCurrentInstant: a limit behind the clock must not
// disturb events already due at the current instant, in the heap or the
// FIFO.
func TestRunLimitHoldsCurrentInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(us(10), func() {
		e.Post(0, func() { order = append(order, 2) })
		e.Post(0, func() { order = append(order, 3) })
		e.Halt()
	})
	e.Schedule(us(10), func() { order = append(order, 1) })
	e.RunAll() // halts at 10us with seq 2 in the heap and two FIFO entries
	e.Run(Time(us(5)))
	e.RunAll()
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Fatalf("order %v, want [1 2 3]", order)
	}
}

// refEvent is one pending event of the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the differential test's reference: a plain slice kept in
// (at, seq) order, against which the engine's queue is checked.
type refQueue struct {
	now     Time
	seq     uint64
	pending []refEvent
	fired   []int
}

func (r *refQueue) post(at Time, id int) uint64 {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
	slices.SortFunc(r.pending, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	return r.seq
}

func (r *refQueue) cancel(seq uint64) bool {
	for i, ev := range r.pending {
		if ev.seq == seq {
			r.pending = slices.Delete(r.pending, i, i+1)
			return true
		}
	}
	return false
}

// fire pops and runs the earliest event if it is due by limit.
func (r *refQueue) fire(limit Time, children func(id int)) bool {
	if len(r.pending) == 0 || r.pending[0].at > limit {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	r.fired = append(r.fired, ev.id)
	children(ev.id)
	return true
}

func (r *refQueue) stamps() []EventStamp {
	out := make([]EventStamp, 0, len(r.pending))
	for _, ev := range r.pending {
		out = append(out, EventStamp{At: ev.at, Seq: ev.seq})
	}
	return out
}

// TestEventQueueDifferential interleaves random Post, Schedule, At, Stop,
// Reset, Run(limit) and Settle calls on an engine and on the sorted
// reference, and requires the same firing order, clock, QueueLen and
// EventStamps after every call. Some callbacks post children at the
// current instant, so the FIFO and its heap-first rule are in play.
func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			differential(t, seed, 3000)
		})
	}
}

func differential(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	ref := &refQueue{}
	var fired []int

	// A timer handle and, while it is pending, its reference seq.
	type handle struct {
		tm  *Timer
		id  int
		seq uint64
	}
	var handles []*handle
	byID := map[int]*handle{}
	nextID := 0

	// Callbacks: every id records itself; ids divisible by 3 post a child
	// at the current instant, ids divisible by 5 one slightly later. The
	// reference applies the same rule.
	var cb func(id int) func()
	childDelay := func(id int) time.Duration { return time.Duration(id%7) * time.Nanosecond }
	cb = func(id int) func() {
		return func() {
			fired = append(fired, id)
			if id%3 == 0 {
				nextID++
				e.Post(0, cb(nextID))
			}
			if id%5 == 0 {
				nextID++
				e.Post(childDelay(id)+1, cb(nextID))
			}
		}
	}
	refID := 0 // the reference's own child-id counter, in lockstep
	var refChildren func(id int)
	refChildren = func(id int) {
		if h := byID[id]; h != nil {
			h.seq = 0 // the handle's one live event fired
		}
		if id%3 == 0 {
			refID++
			ref.post(ref.now, refID)
		}
		if id%5 == 0 {
			refID++
			ref.post(ref.now.Add(childDelay(id)+1), refID)
		}
	}
	newID := func() int {
		nextID++
		refID++
		if nextID != refID {
			t.Fatalf("id counters diverged: %d vs %d", nextID, refID)
		}
		return nextID
	}
	delay := func() time.Duration { return time.Duration(rng.Intn(40)) * time.Nanosecond }

	check := func(step int, what string) {
		t.Helper()
		if !slices.Equal(fired, ref.fired) {
			t.Fatalf("step %d (%s): fired %v\nreference %v", step, what, fired, ref.fired)
		}
		if e.Now() != ref.now {
			t.Fatalf("step %d (%s): clock %v, reference %v", step, what, e.Now(), ref.now)
		}
		if e.QueueLen() != len(ref.pending) {
			t.Fatalf("step %d (%s): QueueLen %d, reference %d", step, what, e.QueueLen(), len(ref.pending))
		}
		if got, want := e.EventStamps(), ref.stamps(); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): stamps %v\nreference %v", step, what, got, want)
		}
	}

	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 3:
			what = "Post"
			id, d := newID(), delay()
			e.Post(d, cb(id))
			ref.post(ref.now.Add(d), id)
		case op < 4:
			what = "Schedule"
			id, d := newID(), delay()
			h := &handle{tm: e.Schedule(d, cb(id)), id: id}
			h.seq = ref.post(ref.now.Add(d), id)
			handles, byID[id] = append(handles, h), h
		case op < 5:
			what = "At"
			id, at := newID(), ref.now.Add(delay())
			h := &handle{tm: e.At(at, cb(id)), id: id}
			h.seq = ref.post(at, id)
			handles, byID[id] = append(handles, h), h
		case op < 6 && len(handles) > 0:
			what = "Stop"
			h := handles[rng.Intn(len(handles))]
			want := h.seq != 0 && ref.cancel(h.seq)
			h.seq = 0
			if got := h.tm.Stop(); got != want {
				t.Fatalf("step %d: Stop reported %v, reference %v", step, got, want)
			}
		case op < 7 && len(handles) > 0:
			what = "Reset"
			h := handles[rng.Intn(len(handles))]
			want := h.seq != 0 && ref.cancel(h.seq)
			d := delay()
			if got := h.tm.Reset(d); got != want {
				t.Fatalf("step %d: Reset reported %v, reference %v", step, got, want)
			}
			h.seq = ref.post(ref.now.Add(d), h.id)
		case op < 9:
			// Limits land behind, at and ahead of the clock.
			limit := ref.now.Add(time.Duration(rng.Intn(30)-5) * time.Nanosecond)
			if limit <= 0 {
				limit = 1
			}
			what = fmt.Sprintf("Run(%v)", limit)
			e.Run(limit)
			for ref.fire(limit, refChildren) {
			}
			if len(ref.pending) > 0 && limit > ref.now {
				ref.now = limit
			}
		default:
			what = "Settle"
			e.Settle()
			for ref.fire(ref.now, refChildren) {
			}
		}
		check(step, what)
	}
	e.RunAll()
	for ref.fire(Time(1<<62), refChildren) {
	}
	check(steps, "RunAll")
}

// BenchmarkEventQueue measures one pop and one push at a steady queue
// depth: 64 and 300 pending events bracket the mean depths of the serve
// and collectives workloads.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{64, 300} {
		b.Run(fmt.Sprint("depth=", depth), func(b *testing.B) {
			e := NewEngine()
			x := uint32(1)
			n := 0
			var fn func()
			fn = func() {
				if n++; n >= b.N {
					e.Halt()
					return
				}
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				e.Post(time.Duration(1+x%1000), fn)
			}
			for i := 0; i < depth; i++ {
				e.Post(time.Duration(1+i*997%1000), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.RunAll()
		})
	}
}
