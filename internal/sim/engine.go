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

// Storage rules. minCap is the smallest array the heap allocates and
// shrinkMinCap the capacity below which it never shrinks: steady-state
// simulations oscillate freely under it without ever re-allocating.
// The lane halves all the way down to laneMinCap (see lane.pop).
const (
	minCap       = 64
	shrinkMinCap = 1024
	laneMinCap   = 8
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

// lane is the FIFO beside the heap: entries that were scheduled in
// (At, Seq) order — a workload's arrivals loaded at build, or a
// restore's — wait here and pop in O(1) without sifting. s[head:] are
// the live entries; the slots before head are popped and zeroed.
type lane struct {
	s    []Entry
	head int
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
}

// pop removes and returns the head entry, zeroing its slot. As the
// lane drains, a lane at a quarter occupancy moves to an array of half
// the capacity — the heap's rule, applied down to laneMinCap rather
// than shrinkMinCap. Once the workload's last arrival is queued, the
// in-flight entries that sort after it keep landing in the lane, so a
// drained lane rarely empties: it lives on as a FIFO of a few long
// timers and periodic ticks, in an array sized to them rather than to
// the spent workload's last few hundred slots.
//
//outran:allocfree
func (l *lane) pop() Entry {
	en := l.s[l.head]
	l.s[l.head] = Entry{}
	l.head++
	switch live := l.len(); {
	case live == 0:
		l.s, l.head = l.s[:0], 0
	case cap(l.s) > laneMinCap && live <= cap(l.s)/4:
		//outran:allocok amortized shrink as the lane drains; a steady few-entry lane sits at laneMinCap and never triggers it
		s := make([]Entry, live, cap(l.s)/2)
		copy(s, l.s[l.head:])
		l.s, l.head = s, 0
	}
	return en
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is ready to use.
//
// Pending entries live in one of two queues, both ordered by (At, Seq):
// the lane, which takes every entry that sorts at or after its tail
// (and, while empty, one that sorts at or after every heap entry), and
// the binary heap, which takes the rest. The next entry to fire is the
// smaller of the two fronts, and (At, Seq) is a total order, so which
// queue holds an entry does not change when it fires: the split shows
// only in the cost of a pop. The heap holds the work in flight, the
// lane the pre-scheduled workload.
type Engine struct {
	now  Time
	pq   eventHeap
	lane lane
	// maxAt, maxSeq bound every heap entry from above: the largest
	// (At, Seq) pushed since the heap was last empty.
	maxAt   Time
	maxSeq  uint64
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
// are released). Both queues keep their arrays for the refill a
// restore brings.
func (e *Engine) DropPending() {
	clear(e.pq)
	e.pq = e.pq[:0]
	clear(e.lane.s)
	e.lane.s, e.lane.head = e.lane.s[:0], 0
}

// Entries returns a copy of the queued entries in ascending Seq order —
// the order they were scheduled in, independent of which queue holds
// them and of the heap layout. The queue is the only record of
// scheduled work; a checkpoint encodes the entries whose handler it
// owns.
//
// Only the heap is sorted. The lane is merged in as it lies whenever it
// is already in seq order, which it is unless a restore refilled it:
// every other entry reaches it through Schedule, in seq order, at the
// tail. The heap is sorted as (seq, index) pairs, which hold no
// pointers, so every entry is copied once, straight to its place.
func (e *Engine) Entries() []Entry {
	lane := e.lane.s[e.lane.head:]
	out := make([]Entry, 0, len(lane)+len(e.pq))
	if !slices.IsSortedFunc(lane, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) }) {
		out = append(append(out, e.pq...), lane...)
		slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) })
		return out
	}
	type seqAt struct {
		seq uint64
		i   int
	}
	heap := make([]seqAt, len(e.pq))
	for i := range e.pq {
		heap[i] = seqAt{e.pq[i].Seq, i}
	}
	slices.SortFunc(heap, func(a, b seqAt) int { return cmp.Compare(a.seq, b.seq) })
	i := 0
	for _, h := range heap {
		for ; i < len(lane) && lane[i].Seq < h.seq; i++ {
			out = append(out, lane[i])
		}
		out = append(out, e.pq[h.i])
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

// next returns the earliest queued entry — the smaller of the lane's
// head and the heap's top — and whether it is the lane's; nil when
// nothing is queued.
func (e *Engine) next() (en *Entry, fromLane bool) {
	if e.lane.head < len(e.lane.s) {
		en = &e.lane.s[e.lane.head]
		if len(e.pq) == 0 || before(en, &e.pq[0]) {
			return en, true
		}
	}
	if len(e.pq) == 0 {
		return nil, false
	}
	return &e.pq[0], false
}

// step pops the earliest entry, advances the clock to it and fires it.
func (e *Engine) step(fromLane bool) {
	var en Entry
	if fromLane {
		en = e.lane.pop()
	} else {
		en = e.pq.pop()
	}
	e.now = en.At
	e.nEvents++
	en.H.Fire(en.Ev)
}

// RunUntil executes events in timestamp order until the queue empties,
// Stop is called, or the next event is strictly after deadline. The
// clock is left at min(deadline, time of last executed event).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		en, fromLane := e.next()
		if en == nil || en.At > deadline {
			break
		}
		e.step(fromLane)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes all pending events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped {
		en, fromLane := e.next()
		if en == nil {
			break
		}
		e.step(fromLane)
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.pq) + e.lane.len() }

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
