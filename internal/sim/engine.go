// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is kept as integer nanoseconds from the start of the simulation.
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes every run with the same inputs bit-for-bit
// reproducible.
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

func before(a, b *Entry) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
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
		//outran:allocok grows only past the high-water mark; steady-state push/pop reuses the array
		s = append(make([]Entry, 0, max(2*cap(s), 64)), s...)
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

// shrinkMinCap is the capacity below which the heap never shrinks:
// steady-state simulations oscillate freely under it without ever
// re-allocating.
const shrinkMinCap = 1024

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
		//outran:allocok amortized shrink after a large drain; steady state stays under the occupancy trigger
		compact := make([]Entry, n, cap(s)/2)
		copy(compact, s)
		s = compact
	}
	*h = s
	return top
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is ready to use.
type Engine struct {
	now     Time
	pq      eventHeap
	seq     uint64
	stopped bool
	nEvents uint64
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.nEvents }

// Walk is the engine's checkpoint layout: the clock, the sequence
// counter and the processed-event count. The queue is not part of it —
// each entry is walked by the layer that owns its handler and comes
// back through Reschedule — so decoding first discards whatever the
// target's construction queued.
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
	switch {
	case w.Err() != nil:
	case at < e.now:
		w.Fail(fmt.Errorf("%w: pending event at %v, before the snapshot instant %v", snapshot.ErrCorrupt, at, e.now))
	default:
		e.ScheduleExact(at, seq, h, ev)
	}
}

// DropPending discards every queued event (slots zeroed so handlers
// are released).
func (e *Engine) DropPending() {
	for i := range e.pq {
		e.pq[i] = Entry{}
	}
	e.pq = e.pq[:0]
}

// Entries returns a copy of the queued entries in ascending Seq order —
// the order they were scheduled in, independent of the heap layout.
// The queue is the only record of scheduled work; a checkpoint encodes
// the entries whose handler it owns.
func (e *Engine) Entries() []Entry {
	out := slices.Clone([]Entry(e.pq))
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

// ScheduleExact re-registers a snapshotted event with its original
// (at, seq) pair, preserving FIFO tie-break order among same-time
// events. Unlike Schedule it does not advance the sequence counter —
// the restored counter already accounts for every event that was ever
// scheduled.
func (e *Engine) ScheduleExact(at Time, seq uint64, h Handler, ev Event) {
	if at < e.now {
		//outran:allocok cold panic path; a past-time schedule is a programming error, not steady state
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

// step pops the earliest entry, advances the clock to it and fires it.
func (e *Engine) step() {
	en := e.pq.pop()
	e.now = en.At
	e.nEvents++
	en.H.Fire(en.Ev)
}

// RunUntil executes events in timestamp order until the queue empties,
// Stop is called, or the next event is strictly after deadline. The
// clock is left at min(deadline, time of last executed event).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped && e.pq[0].At <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes all pending events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped {
		e.step()
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) }

// Timer is a restartable one-shot timer bound to an engine, mirroring
// the protocol timers in RLC/PDCP (t-Reassembly, t-PollRetransmit, …).
//
// Semantics:
//   - Start (re)arms the timer; on a running timer it acts as a reset
//     — the earlier arm never fires. There is no separate Reset.
//   - Stop is always safe: on a running timer it cancels the pending
//     fire; on a never-started, already-stopped, or already-expired
//     timer it is a no-op.
//   - The callback runs at most once per Start and never after Stop;
//     a Start(0) fires at the current time, after the running event.
//
// Cancellation is generation-based (no event-queue surgery): the timer
// is its own handler and each arm carries its generation as payload,
// so a stopped timer's stale queue entry simply evaporates when it
// pops.
type Timer struct {
	e       *Engine
	fn      func()
	gen     uint64 // invalidates entries from older arms
	running bool
	expires Time
	armSeq  uint64 // event seq of the live arm (snapshot/restore)
}

// NewTimer returns a stopped timer that runs fn on expiry.
func NewTimer(e *Engine, fn func()) *Timer {
	return &Timer{e: e, fn: fn}
}

// Start (re)arms the timer to fire after d. A running timer is restarted.
//
//outran:allocfree
func (t *Timer) Start(d Time) {
	t.gen++
	t.running = true
	t.expires = t.e.now + d
	t.armSeq = t.e.Schedule(t.e.now+max(d, 0), t, Event{A: int64(t.gen)})
}

// Fire is the expiry of the arm whose generation ev carries; entries
// of superseded or stopped arms are no-ops.
func (t *Timer) Fire(ev Event) {
	if uint64(ev.A) != t.gen || !t.running {
		return
	}
	t.running = false
	t.fn()
}

// Walk is the timer's checkpoint layout, the one arm codec the protocol
// layers share: whether the timer is running, its absolute expiry and
// the seq of the pending fire. Stale arms from earlier Start/Stop
// cycles are gen-guarded no-ops and are not carried over. Decoding
// re-registers a running arm with its exact original (expires, seq).
func (t *Timer) Walk(w *snapshot.Walker) {
	w.Bool(&t.running)
	snapshot.I64(w, &t.expires)
	w.U64(&t.armSeq)
	if w.Decoding() {
		t.gen++
		if t.running {
			t.e.Reschedule(w, t.expires, t.armSeq, t, Event{A: int64(t.gen)})
		}
	}
}

// Stop cancels the timer if running. Stopping a never-started,
// already-stopped, or already-expired timer is a safe no-op, so
// teardown paths may call it unconditionally.
func (t *Timer) Stop() {
	t.gen++
	t.running = false
}

// Running reports whether the timer is armed.
func (t *Timer) Running() bool { return t.running }

// Expires returns the absolute expiry time of the last arm.
func (t *Timer) Expires() Time { return t.expires }
