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
		//outran:allocok grows only past the high-water mark; steady-state push/pop reuses the array
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
// The lane shrinks all the way down to laneMinCap, judging its
// occupancy over windows of laneWindow pops (see lane.pop).
const (
	minCap       = 64
	shrinkMinCap = 1024
	laneMinCap   = 8
	laneWindow   = 256
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
		//outran:allocok amortized shrink after a large drain; steady state stays under the occupancy trigger
		compact := make([]Entry, n, cap(s)/2)
		copy(compact, s)
		s = compact
	}
	*h = s
	return top
}

// lane is the FIFO beside the heap: entries that land in (At, Seq)
// order — a restore's refill, in-flight work that sorts after
// everything queued — wait here and pop in O(1) without sifting. s[head:] are
// the live entries; the slots before head are popped and zeroed.
type lane struct {
	s    []Entry
	head int
	// The storage rule's record, counted in pops: the last push, and
	// the current window's start and the most entries live in it.
	pops, lastPush, winStart, winPeak int
}

func (l *lane) len() int { return len(l.s) - l.head }

// push appends en, which must sort at or after the lane's tail. A full
// array first slides its live entries over the popped prefix when that
// frees at least half of it, and otherwise doubles, as the heap does.
//
//outran:allocfree
func (l *lane) push(en Entry) {
	if n := len(l.s); n == cap(l.s) {
		if live := n - l.head; l.head > 0 && live <= n/2 {
			copy(l.s, l.s[l.head:])
			clear(l.s[live:])
			l.s = l.s[:live]
		} else {
			//outran:allocok grows only past the high-water mark, as the heap does; steady-state push/pop reuses the array
			s := make([]Entry, live, max(2*n, laneMinCap))
			copy(s, l.s[l.head:])
			l.s = s
		}
		l.head = 0
	}
	l.s = l.s[:len(l.s)+1]
	l.s[len(l.s)-1] = en
	l.lastPush = l.pops
	l.winPeak = max(l.winPeak, l.len())
}

// pop removes and returns the head entry, zeroing its slot, and moves a
// lane that holds an eighth of its array or less to one of a quarter of
// the capacity, down to laneMinCap: twice what it held, the heap's
// margin, in half the copies halving would take. What the lane holds is
// judged by how it is used:
//
//   - A lane that is being refilled shrinks only when no moment of a
//     whole window of laneWindow pops saw it above an eighth. In-flight
//     entries that sort after the lane's tail keep landing in it, and
//     it lives as a FIFO whose occupancy swings tenfold within a few
//     hundred pops (15 to 150 entries and back on the nr-dense shape);
//     judged pop by pop, it would shrink at every trough and grow again
//     at every crest.
//   - A lane that no push has reached for a whole window is draining —
//     a restore's refill, a burst — and shrinks the moment it
//     falls to an eighth, so it keeps an array sized to what it holds
//     and a drained lane is back at laneMinCap.
//
//outran:allocfree
func (l *lane) pop() Entry {
	en := l.s[l.head]
	l.s[l.head] = Entry{}
	l.head++
	l.pops++
	live := l.len()
	if live == 0 {
		l.s, l.head = l.s[:0], 0
	}
	eighth := cap(l.s) / 8
	shrink := false
	switch {
	case l.pops-l.winStart >= laneWindow:
		shrink = l.winPeak <= eighth
		l.winStart, l.winPeak = l.pops, live
	case l.pops-l.lastPush >= laneWindow:
		shrink = live <= eighth
	}
	if shrink && cap(l.s) > laneMinCap {
		//outran:allocok amortized shrink of a lane that holds an eighth of its array or less; a refilled lane is judged over a whole window, so it does not shrink at every trough
		s := make([]Entry, live, max(cap(l.s)/4, laneMinCap))
		copy(s, l.s[l.head:])
		l.s, l.head = s, 0
	}
	return en
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is ready to use.
//
// Pending entries live in one of three queues, all ordered by (At, Seq):
// the timer queue, which holds one entry per armed Timer; the lane,
// which takes every other entry that sorts at or after its tail (and,
// while empty, one that sorts at or after every heap entry); and the
// binary heap, which takes the rest. The next entry to fire is the
// smallest of the three fronts, and (At, Seq) is a total order, so
// which queue holds an entry does not change when it fires: the split
// shows only in the cost of a pop. The heap holds the work in flight
// that lands out of order, the lane what lands in order: a restore's
// refill, and entries that keep sorting after its tail.
type Engine struct {
	now    Time
	pq     eventHeap
	lane   lane
	timers timerHeap
	// maxAt, maxSeq bound every heap entry from above: the largest
	// (At, Seq) pushed since the heap was last empty.
	maxAt   Time
	maxSeq  uint64
	seq     uint64
	stopped bool
	nEvents uint64
}

// Queues an entry can wait in; noQueue when nothing is pending.
type queue uint8

const (
	noQueue queue = iota
	laneQueue
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
	clear(e.lane.s)
	e.lane.s, e.lane.head = e.lane.s[:0], 0
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
//
// Only the heaps are sorted. The lane is merged in as it lies whenever
// it is already in seq order — every entry that reaches it through
// Schedule does, at the tail — and everything is sorted when a
// restore's refill or an entry queued under a reserved seq broke that
// order. The heaps are sorted as (seq, index) pairs, which hold no
// pointers, so every entry is copied once, straight to its place.
func (e *Engine) Entries() []Entry {
	lane := e.lane.s[e.lane.head:]
	out := make([]Entry, 0, len(lane)+len(e.pq)+len(e.timers))
	if !slices.IsSortedFunc(lane, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) }) {
		out = append(append(out, e.pq...), lane...)
		for _, k := range e.timers {
			out = append(out, k.entry())
		}
		slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) })
		return out
	}
	// Index i < len(pq) names a heap entry, any other one the timer
	// at i - len(pq).
	type seqAt struct {
		seq uint64
		i   int
	}
	heaps := make([]seqAt, 0, len(e.pq)+len(e.timers))
	for i := range e.pq {
		heaps = append(heaps, seqAt{e.pq[i].Seq, i})
	}
	for i, k := range e.timers {
		heaps = append(heaps, seqAt{k.seq, len(e.pq) + i})
	}
	slices.SortFunc(heaps, func(a, b seqAt) int { return cmp.Compare(a.seq, b.seq) })
	i := 0
	for _, h := range heaps {
		for ; i < len(lane) && lane[i].Seq < h.seq; i++ {
			out = append(out, lane[i])
		}
		if h.i < len(e.pq) {
			out = append(out, e.pq[h.i])
		} else {
			out = append(out, e.timers[h.i-len(e.pq)].entry())
		}
	}
	return append(out, lane[i:]...)
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
		//outran:allocok cold panic path; a past-time schedule is a programming error, not steady state
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	en := Entry{At: at, Seq: seq, H: h, Ev: ev}
	if e.laneTakes(at, seq) {
		e.lane.push(en)
		return
	}
	if len(e.pq) == 0 || precedes(e.maxAt, e.maxSeq, at, seq) {
		e.maxAt, e.maxSeq = at, seq
	}
	e.pq.push(en)
}

// laneTakes reports whether an entry keyed (at, seq) goes to the lane:
// it sorts after the lane's tail or, when the lane is empty, after every
// heap entry.
func (e *Engine) laneTakes(at Time, seq uint64) bool {
	if n := len(e.lane.s); n > e.lane.head {
		tail := &e.lane.s[n-1]
		return !precedes(at, seq, tail.At, tail.Seq)
	}
	return len(e.pq) == 0 || !precedes(at, seq, e.maxAt, e.maxSeq)
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

// next returns the instant of the earliest queued entry — the smallest
// of the lane's head, the heap's top and the timer queue's top — and
// the queue it fronts; noQueue when nothing is queued.
func (e *Engine) next() (at Time, q queue) {
	var seq uint64
	if e.lane.head < len(e.lane.s) {
		en := &e.lane.s[e.lane.head]
		at, seq, q = en.At, en.Seq, laneQueue
	}
	if len(e.pq) > 0 && (q == noQueue || precedes(e.pq[0].At, e.pq[0].Seq, at, seq)) {
		at, seq, q = e.pq[0].At, e.pq[0].Seq, heapQueue
	}
	if len(e.timers) > 0 && (q == noQueue || precedes(e.timers[0].at, e.timers[0].seq, at, seq)) {
		at, q = e.timers[0].at, timerQueue
	}
	return at, q
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
	var en Entry
	if q == laneQueue {
		en = e.lane.pop()
	} else {
		en = e.pq.pop()
	}
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
	case laneQueue:
		en = e.lane.s[e.lane.head]
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
func (e *Engine) Pending() int { return len(e.pq) + e.lane.len() + len(e.timers) }
