package sim

import "outran/internal/snapshot"

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
// An armed timer owns exactly one entry of the engine's timer queue and
// knows where it is: a re-arm re-keys that entry in place, a Stop
// removes it, and the expiry pops it. No arm outlives its timer's
// state, so every timer event the engine fires is live.
type Timer struct {
	e       *Engine
	fn      func()
	expires Time   // absolute instant of the last arm
	armSeq  uint64 // event seq of the last arm (snapshot/restore)
	slot    int    // 1 + the arm's index in e.timers; 0 while not armed
}

// NewTimer returns a stopped timer that runs fn on expiry.
func NewTimer(e *Engine, fn func()) *Timer {
	return &Timer{e: e, fn: fn}
}

// Start (re)arms the timer to fire after d (a negative d fires now). A
// running timer is restarted: it keeps its queue entry under the new
// key, which takes the next seq like any scheduled event.
//
//outran:allocfree
func (t *Timer) Start(d Time) {
	t.e.seq++
	t.expires, t.armSeq = t.e.now+max(d, 0), t.e.seq
	t.e.timers.arm(t)
}

// Stop cancels the timer if running. Stopping a never-started,
// already-stopped, or already-expired timer is a safe no-op, so
// teardown paths may call it unconditionally.
func (t *Timer) Stop() {
	if t.slot != 0 {
		t.e.timers.remove(t.slot - 1)
	}
}

// Fire is the timer's expiry. The engine has already taken the arm off
// its queue, so the callback sees a stopped timer and may Start it again.
func (t *Timer) Fire(Event) { t.fn() }

// Running reports whether the timer is armed.
func (t *Timer) Running() bool { return t.slot != 0 }

// Expires returns the absolute expiry time of the last arm.
func (t *Timer) Expires() Time { return t.expires }

// Walk is the timer's checkpoint layout, the one arm codec the protocol
// layers share: whether the timer is running, its absolute expiry and
// the seq of the pending fire. Decoding arms a running timer through
// Start's path with its exact original (expires, seq) and stops any
// other; an arm before the restored clock fails the walk.
func (t *Timer) Walk(w *snapshot.Walker) {
	running := t.Running()
	w.Bool(&running)
	snapshot.I64(w, &t.expires)
	w.U64(&t.armSeq)
	if w.Decoding() {
		t.Stop()
		if running && t.e.restorable(w, t.expires) {
			t.e.timers.arm(t)
		}
	}
}

// timerKey is one armed timer's queue entry: its (at, seq) key held
// beside the timer, so a sift compares without chasing the pointer.
type timerKey struct {
	at  Time
	seq uint64
	t   *Timer
}

// entry is the arm as Engine.Entries lists it.
func (k timerKey) entry() Entry { return Entry{At: k.at, Seq: k.seq, H: k.t} }

// timerHeap is the engine's second queue: a binary min-heap of armed
// timers ordered by (at, seq), in which every timer records its index
// (Timer.slot). It shares the event heap's storage rules.
type timerHeap []timerKey

// place puts k at index i and tells its timer.
func (h timerHeap) place(i int, k timerKey) {
	h[i] = k
	k.t.slot = i + 1
}

// arm queues t under its (expires, armSeq): a timer not yet queued is
// appended and sifted up; a queued one is re-keyed where it stands and
// sifted whichever way its new key points.
func (h *timerHeap) arm(t *Timer) {
	k := timerKey{t.expires, t.armSeq, t}
	if t.slot == 0 {
		s := *h
		if len(s) == cap(s) {
			// Not a steady-state allocation: grows only past the high-water mark of armed timers; steady-state re-arms reuse the array
			s = append(make([]timerKey, 0, max(2*cap(s), minCap)), s...)
		}
		*h = s[:len(s)+1]
		h.up(len(s), k)
		return
	}
	i := t.slot - 1
	if old := (*h)[i]; precedes(k.at, k.seq, old.at, old.seq) {
		h.up(i, k)
	} else {
		h.down(i, k)
	}
}

// up moves k from the hole at i toward the root, parents moving down
// into the hole.
func (h timerHeap) up(i int, k timerKey) {
	for i > 0 {
		parent := (i - 1) / 2
		if !precedes(k.at, k.seq, h[parent].at, h[parent].seq) {
			break
		}
		h.place(i, h[parent])
		i = parent
	}
	h.place(i, k)
}

// down moves k from the hole at i toward the leaves, the smaller child
// moving up into the hole.
func (h timerHeap) down(i int, k timerKey) {
	n := len(h)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && precedes(h[r].at, h[r].seq, h[m].at, h[m].seq) {
			m = r
		}
		if !precedes(h[m].at, h[m].seq, k.at, k.seq) {
			break
		}
		h.place(i, h[m])
		i = m
	}
	h.place(i, k)
}

// remove takes the entry at index i off the heap and disarms its timer.
// The last entry fills the hole and sifts whichever way it must; the
// vacated slot is zeroed so the timer is not pinned, and the array
// compacts under quarter occupancy as the event heap's does.
func (h *timerHeap) remove(i int) *Timer {
	s := *h
	t := s[i].t
	t.slot = 0
	n := len(s) - 1
	last := s[n]
	s[n] = timerKey{}
	s = s[:n]
	if i < n {
		if i > 0 && precedes(last.at, last.seq, s[(i-1)/2].at, s[(i-1)/2].seq) {
			s.up(i, last)
		} else {
			s.down(i, last)
		}
	}
	if cap(s) >= shrinkMinCap && n <= cap(s)/4 {
		// Indices survive the copy, so no timer's slot moves.
		compact := make([]timerKey, n, cap(s)/2)
		copy(compact, s)
		s = compact
	}
	*h = s
	return t
}
