// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is kept as integer nanoseconds from the start of the simulation.
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes every run with the same inputs bit-for-bit
// reproducible.
//
// The queue is the only record of scheduled work: recurring work is a
// handler that queues its own next entry when it fires.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"outran/internal/snapshot"
)

// Time is a simulation timestamp in nanoseconds since simulation start.
type Time int64

// Common time units, usable as sim.Time directly.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns t in milliseconds as a float.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Handler receives the events scheduled for it. The engine keeps the
// handler and the event's payload side by side in its queue, so
// scheduled work is data: it can be enumerated, serialised by whoever
// owns the kinds, and re-scheduled as the same value.
type Handler interface {
	Fire(ev Event)
}

// Event is the by-value payload of one scheduled entry. Only the
// handler gives the fields meaning; Ptr holds at most one pointer-
// shaped value, so filling it never allocates.
type Event struct {
	Kind uint8
	Idx  int32
	A, B int64
	Ptr  any
}

// Entry is one queued event: when it fires, its FIFO tie-break
// sequence number, who handles it and with what payload.
type Entry struct {
	At  Time
	Seq uint64 // tie-breaker: FIFO among same-time events
	H   Handler
	Ev  Event
}

// funcHandler is the handler behind At/After: the func is the handler
// and the payload is empty. A func value is pointer-shaped, so the
// conversion to Handler does not allocate.
type funcHandler func()

func (f funcHandler) Fire(Event) { f() }

// eventHeap is a hand-rolled binary min-heap ordered by (At, Seq).
// container/heap would box every entry into an interface{} on Push —
// one heap allocation per scheduled event, on the hottest path of the
// simulator — so the sift operations are implemented directly on the
// slice. Pop order is fully determined by the (At, Seq) total order,
// so the heap layout itself never affects the simulated schedule.
type eventHeap []Entry

func before(a, b *Entry) bool { return precedes(a.At, a.Seq, b.At, b.Seq) }

// precedes is the (At, Seq) order on bare keys.
func precedes(at Time, seq uint64, at2 Time, seq2 uint64) bool {
	if at != at2 {
		return at < at2
	}
	return seq < seq2
}

// push appends en and restores the heap invariant, moving parents down
// into the hole instead of swapping. The backing array is reused across
// push/pop cycles; it grows only when the pending event count exceeds
// every previous high-water mark since the last shrink.
//
//outran:allocfree
func (h *eventHeap) push(en Entry) {
	s := *h
	if len(s) == cap(s) {
		// Double: append's 1.25x policy for large slices would copy a
		// workload's worth of entries five times over while it is scheduled.
		// Not a steady-state allocation: grows only past the high-water mark; steady-state push/pop reuses the array
		s = append(make([]Entry, 0, max(2*cap(s), minCap)), s...)
	}
	i := len(s)
	s = s[:i+1]
	*h = s
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&en, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = en
}

// Storage rules. minCap is the smallest array the heaps allocate and
// shrinkMinCap the capacity below which they never shrink: steady-state
// simulations oscillate freely under it without ever re-allocating.
const (
	minCap       = 64
	shrinkMinCap = 1024
)

// pop removes and returns the minimum entry. The vacated slot is
// zeroed so the handler and payload pointer are released immediately,
// and when a large drain leaves the backing array at under a quarter
// occupancy the storage is compacted — a burst of scheduled events
// (e.g. a chaos sweep) no longer pins its peak memory for the rest of
// the run.
//
//outran:allocfree
func (h *eventHeap) pop() Entry {
	s := *h
	n := len(s) - 1
	top := s[0]
	last := s[n]
	s[n] = Entry{}
	s = s[:n]
	// Sift the relocated last entry down from the root.
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && before(&s[r], &s[m]) {
			m = r
		}
		if !before(&s[m], &last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	if n > 0 {
		s[i] = last
	}
	if cap(s) >= shrinkMinCap && n <= cap(s)/4 {
		// Halve toward the live size; the slack keeps refills cheap.
		// Not a steady-state allocation: amortized shrink after a large drain; steady state stays under the occupancy trigger
		compact := make([]Entry, n, cap(s)/2)
		copy(compact, s)
		s = compact
	}
	*h = s
	return top
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is ready to use.
//
// Pending entries live in one of two queues, both ordered by (At, Seq):
// the timer queue, which holds one entry per armed Timer, and the
// binary heap, which holds every other entry. The next entry to fire is
// the smaller of the two fronts, and (At, Seq) is a total order, so
// which queue holds an entry does not change when it fires.
type Engine struct {
	now     Time
	pq      eventHeap
	timers  timerHeap
	seq     uint64
	stopped bool
	nEvents uint64
}

// Queues an entry can wait in; noQueue when nothing is pending.
type queue uint8

const (
	noQueue queue = iota
	heapQueue
	timerQueue
)

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nEvents }

// Walk is the engine's checkpoint layout: the clock, the sequence
// counter and the processed-event count. The queue is not part of it —
// each entry is walked by the layer that owns its handler and comes
// back through Reschedule (a timer's arm through Timer.Walk) — so
// decoding first discards whatever the target's construction queued.
func (e *Engine) Walk(w *snapshot.Walker) {
	if w.Decoding() {
		e.DropPending()
	}
	snapshot.I64(w, &e.now)
	w.U64(&e.seq)
	w.U64(&e.nEvents)
}

// Reschedule puts a decoded entry back on the queue with its original
// (at, seq), so same-time tie-breaks replay identically (ScheduleExact).
// It does nothing once the walk has failed, and an instant before the
// restored clock — which ScheduleExact would panic on — fails the walk.
func (e *Engine) Reschedule(w *snapshot.Walker, at Time, seq uint64, h Handler, ev Event) {
	if e.restorable(w, at) {
		e.ScheduleExact(at, seq, h, ev)
	}
}

// restorable reports whether a decoded arm at at may be queued: the walk
// has not failed, and at is not before the restored clock, which fails
// the walk.
func (e *Engine) restorable(w *snapshot.Walker, at Time) bool {
	if w.Err() != nil {
		return false
	}
	if at < e.now {
		w.Fail(fmt.Errorf("%w: pending event at %v, before the snapshot instant %v", snapshot.ErrCorrupt, at, e.now))
		return false
	}
	return true
}

// DropPending discards every queued event (slots zeroed so handlers
// are released) and so disarms every timer. The queues keep their
// arrays for the refill a restore brings.
func (e *Engine) DropPending() {
	clear(e.pq)
	e.pq = e.pq[:0]
	for _, k := range e.timers {
		k.t.slot = 0
	}
	clear(e.timers)
	e.timers = e.timers[:0]
}

// Entries returns a copy of the queued entries in ascending Seq order —
// the order they were scheduled in, independent of which queue holds
// them and of the heaps' layouts. The queue is the only record of
// scheduled work; a checkpoint encodes the entries whose handler it
// owns. An armed timer is listed as its one arm: (expires, armSeq), the
// timer as handler, an empty payload.
func (e *Engine) Entries() []Entry {
	out := make([]Entry, 0, len(e.pq)+len(e.timers))
	out = append(out, e.pq...)
	for _, k := range e.timers {
		out = append(out, k.entry())
	}
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Schedule queues ev for h at absolute time at and returns the entry's
// sequence number. Scheduling in the past panics: it would silently
// reorder causality.
//
//outran:allocfree
func (e *Engine) Schedule(at Time, h Handler, ev Event) uint64 {
	e.seq++
	e.ScheduleExact(at, e.seq, h, ev)
	return e.seq
}

// Seq returns the last sequence number issued, by Schedule or Reserve.
func (e *Engine) Seq() uint64 { return e.seq }

// Reserve sets aside n consecutive sequence numbers, [first, first+n),
// for entries the caller queues later with ScheduleExact: a source of
// pre-sorted events can then queue each one only when the one before it
// fires, under the seq eager scheduling would have given it.
func (e *Engine) Reserve(n int) (first uint64) {
	first = e.seq + 1
	e.seq += uint64(n)
	return first
}

// ScheduleExact re-registers a snapshotted event with its original
// (at, seq) pair, preserving FIFO tie-break order among same-time
// events. Unlike Schedule it does not advance the sequence counter —
// the restored counter already accounts for every event that was ever
// scheduled.
func (e *Engine) ScheduleExact(at Time, seq uint64, h Handler, ev Event) {
	if at < e.now {
		// Not a steady-state allocation: cold panic path; a past-time schedule is a programming error, not steady state
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.pq.push(Entry{At: at, Seq: seq, H: h, Ev: ev})
}

// At schedules fn to run at absolute time t. A func entry cannot be
// serialised: a checkpoint taken while one is pending fails.
//
//outran:allocfree
func (e *Engine) At(t Time, fn func()) {
	e.Schedule(t, funcHandler(fn), Event{})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+max(d, 0), fn)
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// next returns the instant of the earliest queued entry — the smaller
// of the heap's top and the timer queue's top — and the queue it
// fronts; noQueue when nothing is queued.
func (e *Engine) next() (at Time, q queue) {
	if len(e.timers) > 0 {
		k := &e.timers[0]
		if len(e.pq) == 0 || precedes(k.at, k.seq, e.pq[0].At, e.pq[0].Seq) {
			return k.at, timerQueue
		}
	}
	if len(e.pq) > 0 {
		return e.pq[0].At, heapQueue
	}
	return 0, noQueue
}

// step pops the front of q, advances the clock to it and fires it.
func (e *Engine) step(q queue) {
	if q == timerQueue {
		t := e.timers.remove(0)
		e.now = t.expires
		e.nEvents++
		t.Fire(Event{})
		return
	}
	en := e.pq.pop()
	e.now = en.At
	e.nEvents++
	en.H.Fire(en.Ev)
}

// Step fires the earliest queued entry and returns it — an armed
// timer's as Entries lists it — or false when nothing is queued. It is
// RunUntil one event at a time, for callers that watch each one.
func (e *Engine) Step() (Entry, bool) {
	_, q := e.next()
	var en Entry
	switch q {
	case noQueue:
		return Entry{}, false
	case heapQueue:
		en = e.pq[0]
	case timerQueue:
		en = e.timers[0].entry()
	}
	e.step(q)
	return en, true
}

// RunUntil executes events in timestamp order until the queue empties,
// Stop is called, or the next event is strictly after deadline. The
// clock is left at min(deadline, time of last executed event).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		at, q := e.next()
		if q == noQueue || at > deadline {
			break
		}
		e.step(q)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes all pending events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped {
		_, q := e.next()
		if q == noQueue {
			break
		}
		e.step(q)
	}
}

// Pending returns the number of queued events, each armed timer's one
// arm among them.
func (e *Engine) Pending() int { return len(e.pq) + len(e.timers) }
