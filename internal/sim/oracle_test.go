package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"testing"

	"outran/internal/rng"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// The differential oracle: a frozen copy of the engine as it stood
// before the timer queue, when one binary heap held every pending entry,
// timer arms included, and of the generation-guarded timer bound to it,
// whose re-arms and stops left their old entries queued to pop as
// no-ops. FuzzEngineOrder and TestEngineMatchesHeapOracle drive it and
// the live engine through the same operations and demand bitwise-equal
// results once the oracle's dead arms are filtered out: the fired
// sequence, the clock, Processed less the no-op fires, Pending and
// Entries() less the dead arms. Do not "modernise" it; the noops
// counter, refTimer.dead and refTimer.restore (the old Timer.Walk's
// decode) are the only additions.

type refHeap []Entry

func (h *refHeap) push(en Entry) {
	s := *h
	if len(s) == cap(s) {
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

func (h *refHeap) pop() Entry {
	s := *h
	n := len(s) - 1
	top := s[0]
	last := s[n]
	s[n] = Entry{}
	s = s[:n]
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
	if cap(s) >= 1024 && n <= cap(s)/4 {
		compact := make([]Entry, n, cap(s)/2)
		copy(compact, s)
		s = compact
	}
	*h = s
	return top
}

type refEngine struct {
	now     Time
	pq      refHeap
	seq     uint64
	stopped bool
	nEvents uint64
	noops   uint64 // dead timer arms popped
}

func (e *refEngine) Now() Time         { return e.now }
func (e *refEngine) Processed() uint64 { return e.nEvents }
func (e *refEngine) Pending() int      { return len(e.pq) }
func (e *refEngine) Stop()             { e.stopped = true }

func (e *refEngine) DropPending() {
	for i := range e.pq {
		e.pq[i] = Entry{}
	}
	e.pq = e.pq[:0]
}

func (e *refEngine) Entries() []Entry {
	out := slices.Clone([]Entry(e.pq))
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

func (e *refEngine) Schedule(at Time, h Handler, ev Event) uint64 {
	e.seq++
	e.ScheduleExact(at, e.seq, h, ev)
	return e.seq
}

func (e *refEngine) ScheduleExact(at Time, seq uint64, h Handler, ev Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.pq.push(Entry{At: at, Seq: seq, H: h, Ev: ev})
}

func (e *refEngine) step() {
	en := e.pq.pop()
	e.now = en.At
	e.nEvents++
	en.H.Fire(en.Ev)
}

func (e *refEngine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.pq) > 0 && !e.stopped && e.pq[0].At <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

type refTimer struct {
	e       *refEngine
	fn      func()
	gen     uint64
	running bool
	expires Time
	armSeq  uint64
}

func (t *refTimer) Start(d Time) {
	t.gen++
	t.running = true
	t.expires = t.e.now + d
	t.armSeq = t.e.Schedule(t.e.now+max(d, 0), t, Event{A: int64(t.gen)})
}

func (t *refTimer) Fire(ev Event) {
	if t.dead(ev) {
		t.e.noops++
		return
	}
	t.running = false
	t.fn()
}

// dead reports whether ev is an arm of t that pops as a no-op.
func (t *refTimer) dead(ev Event) bool { return uint64(ev.A) != t.gen || !t.running }

// restore is the old Timer.Walk's decode.
func (t *refTimer) restore(running bool, expires Time, armSeq uint64) {
	t.running, t.expires, t.armSeq = running, expires, armSeq
	t.gen++
	if t.running {
		t.e.ScheduleExact(t.expires, t.armSeq, t, Event{A: int64(t.gen)})
	}
}

func (t *refTimer) Stop() {
	t.gen++
	t.running = false
}

// engineUnderTest is what the driver needs of either engine.
type engineUnderTest interface {
	Now() Time
	Processed() uint64
	Pending() int
	Stop()
	DropPending()
	Entries() []Entry
	Schedule(at Time, h Handler, ev Event) uint64
	ScheduleExact(at Time, seq uint64, h Handler, ev Event)
	RunUntil(deadline Time)
}

// fired is one observed firing: the clock, the entry's seq, and the
// payload (a timer's expiry logs its index as A, kind timerFired).
type fired struct {
	at   Time
	seq  uint64
	kind uint8
	a, b int64
}

// Payload kinds of the driver's recorder entries.
const (
	kindPlain uint8 = iota
	kindChild       // schedules one more entry b ns later when it fires
	kindStop        // calls Stop when it fires
	timerFired
)

// side is one engine under the driver, with its log and handlers.
type side struct {
	e      engineUnderTest
	fired  []fired
	seqOf  map[int64]uint64 // recorder payload id -> the seq it was queued with
	child  int64            // next child payload id
	timers []interface {
		Start(Time)
		Stop()
	}
	timerOf  map[Handler]int
	expiries int // timer expiries seen so far
}

func (s *side) Fire(ev Event) {
	s.fired = append(s.fired, fired{s.e.Now(), s.seqOf[ev.A], ev.Kind, ev.A, ev.B})
	delete(s.seqOf, ev.A)
	switch ev.Kind {
	case kindChild:
		s.child++
		id := -s.child // children count down from -1; the driver's ids count up
		s.seqOf[id] = s.e.Schedule(s.e.Now()+Time(ev.B), s, Event{Kind: kindPlain, A: id, B: ev.B / 2})
	case kindStop:
		s.e.Stop()
	}
}

// timerFired logs timer i's expiry of the arm seq, then now and again
// starts a timer from inside the callback: expiry 6k restarts the
// expiring timer with Start(0), at this very instant, and expiry 6k+3
// starts the next timer.
func (s *side) timerFired(i int, seq uint64) {
	s.fired = append(s.fired, fired{s.e.Now(), seq, timerFired, int64(i), 0})
	s.expiries++
	switch s.expiries % 6 {
	case 0:
		s.timers[i].Start(0)
	case 3:
		s.timers[(i+1)%len(s.timers)].Start(Time(s.expiries % 50))
	}
}

func newSide(e engineUnderTest) *side {
	return &side{e: e, seqOf: map[int64]uint64{}, timerOf: map[Handler]int{}}
}

// numTimers is how many timers each side's driver exercises: enough for
// the timer queue to be a heap several levels deep.
const numTimers = 12

func liveSide() (*side, []*Timer) {
	e := &Engine{}
	s := newSide(e)
	var timers []*Timer
	for i := 0; i < numTimers; i++ {
		tm := NewTimer(e, nil)
		tm.fn = func() { s.timerFired(i, tm.armSeq) }
		s.timers = append(s.timers, tm)
		s.timerOf[tm] = i
		timers = append(timers, tm)
	}
	return s, timers
}

func refSide() (*side, []*refTimer) {
	e := &refEngine{}
	s := newSide(e)
	var timers []*refTimer
	for i := 0; i < numTimers; i++ {
		tm := &refTimer{e: e}
		tm.fn = func() { s.timerFired(i, tm.armSeq) }
		s.timers = append(s.timers, tm)
		s.timerOf[tm] = i
		timers = append(timers, tm)
	}
	return s, timers
}

// entryKey is an Entries() element with its handler named: -1 for the
// recorder, the index for a timer, whose arm carries no payload.
type entryKey struct {
	at      Time
	seq     uint64
	kind    uint8
	a, b    int64
	handler int
}

// entries lists the queue; the oracle's dead timer arms are left out.
func (s *side) entries() []entryKey {
	var out []entryKey
	for _, en := range s.e.Entries() {
		i, ok := s.timerOf[en.H]
		switch {
		case !ok:
			out = append(out, entryKey{en.At, en.Seq, en.Ev.Kind, en.Ev.A, en.Ev.B, -1})
		case !isDeadArm(en):
			out = append(out, entryKey{at: en.At, seq: en.Seq, handler: i})
		}
	}
	return out
}

// isDeadArm reports whether en is an oracle timer's arm that pops as a
// no-op.
func isDeadArm(en Entry) bool {
	rt, ok := en.H.(*refTimer)
	return ok && rt.dead(en.Ev)
}

// processed is the count of fired events, the oracle's less its no-op
// fires.
func (s *side) processed() uint64 {
	if r, ok := s.e.(*refEngine); ok {
		return r.nEvents - r.noops
	}
	return s.e.Processed()
}

// pending is the count of queued events, the oracle's less its dead
// timer arms.
func (s *side) pending() int {
	r, ok := s.e.(*refEngine)
	if !ok {
		return s.e.Pending()
	}
	n := 0
	for _, en := range r.pq {
		if !isDeadArm(en) {
			n++
		}
	}
	return n
}

// checkTimerQueue fails unless the live engine's timer queue holds
// exactly its running timers: one entry each, keyed (expires, armSeq),
// whose index the timer's slot names, in heap order.
func checkTimerQueue(t testing.TB, n int, e *Engine, timers []*Timer) {
	running := 0
	for i, tm := range timers {
		if !tm.Running() {
			continue
		}
		running++
		if tm.slot > len(e.timers) || e.timers[tm.slot-1].t != tm {
			t.Fatalf("op %d: running timer %d names slot %d of %d, which is not its entry", n, i, tm.slot, len(e.timers))
		}
		if k := e.timers[tm.slot-1]; k.at != tm.expires || k.seq != tm.armSeq {
			t.Fatalf("op %d: timer %d queued at (%v, %d), armed at (%v, %d)", n, i, k.at, k.seq, tm.expires, tm.armSeq)
		}
	}
	if running != len(e.timers) {
		t.Fatalf("op %d: %d running timers, %d timer entries queued", n, running, len(e.timers))
	}
	for i, k := range e.timers {
		if k.t.slot != i+1 {
			t.Fatalf("op %d: timer entry %d is named by slot %d", n, i, k.t.slot)
		}
		if p := (i - 1) / 2; i > 0 && precedes(k.at, k.seq, e.timers[p].at, e.timers[p].seq) {
			t.Fatalf("op %d: timer entry %d (%v, %d) sorts before its parent (%v, %d)", n, i, k.at, k.seq, e.timers[p].at, e.timers[p].seq)
		}
	}
}

// opStream reads the driver's choices from bytes; past the end it
// reads zeros.
type opStream struct {
	b []byte
	i int
}

func (o *opStream) next() int {
	if o.i >= len(o.b) {
		return 0
	}
	o.i++
	return int(o.b[o.i-1])
}

func (o *opStream) more() bool { return o.i < len(o.b) }

// span draws a non-negative delay, mostly short, now and then long.
func (o *opStream) span() Time {
	v := Time(o.next())
	if o.next()%4 == 0 {
		v *= 97
	}
	return v
}

// driveEngines runs the byte-coded operations on the live engine and
// on the frozen heap-only copy and fails at the first operation after
// which they differ, or after which a live timer's queue entry is not
// its one arm. It returns the number of operations run and how many of
// them began with both the heap and the timer queue holding entries.
func driveEngines(t testing.TB, program []byte) (n, mixed int) {
	live, liveTimers := liveSide()
	ref, refTimers := refSide()
	sides := [2]*side{live, ref}
	ops := &opStream{b: program}
	var id int64       // next driver payload id
	var spare []uint64 // seqs of entries no longer queued, each reusable once by ScheduleExact
	payload := func() Event {
		id++
		kind := kindPlain
		switch k := ops.next(); {
		case k < 64:
			kind = kindChild
		case k == 255:
			kind = kindStop
		}
		return Event{Kind: kind, A: id, B: int64(ops.next())}
	}
	schedule := func(at Time, ev Event) {
		for _, s := range sides {
			s.seqOf[ev.A] = s.e.Schedule(at, s, ev)
		}
	}
	exact := func(at Time, seq uint64, ev Event) {
		for _, s := range sides {
			s.seqOf[ev.A] = seq
			s.e.ScheduleExact(at, seq, s, ev)
		}
	}
	takeSpare := func() (uint64, bool) {
		if len(spare) == 0 {
			return 0, false
		}
		j := ops.next() % len(spare)
		seq := spare[j]
		spare[j] = spare[len(spare)-1]
		spare = spare[:len(spare)-1]
		return seq, true
	}
	le := live.e.(*Engine)
	for ; ops.more(); n++ {
		if len(le.pq) > 0 && len(le.timers) > 0 {
			mixed++
		}
		firedBefore := len(live.fired)
		op := ops.next() % 10
		switch op {
		case 0: // bulk in-order load, as a workload's arrivals
			at := live.e.Now() + ops.span()
			for k := ops.next() % 64; k >= 0; k-- {
				schedule(at, payload())
				at += Time(ops.next() % 8)
			}
		case 1: // restore-style load: spare seqs in ascending order
			slices.Sort(spare)
			k := min(len(spare), ops.next()%32)
			at := live.e.Now() + ops.span()
			for _, seq := range spare[:k] {
				exact(at, seq, payload())
				at += Time(ops.next() % 8)
			}
			spare = spare[k:]
		case 2: // same-instant ties
			at := live.e.Now() + ops.span()
			for k := ops.next() % 16; k >= 0; k-- {
				schedule(at, payload())
			}
		case 3: // one entry at any future instant
			schedule(live.e.Now()+ops.span(), payload())
		case 4: // out-of-order ScheduleExact with an old seq
			if seq, ok := takeSpare(); ok {
				exact(live.e.Now()+ops.span(), seq, payload())
			}
		case 5, 6: // run to a deadline
			d := live.e.Now() + ops.span()
			for _, s := range sides {
				s.e.RunUntil(d)
			}
		case 7: // drop everything mid-run, then restore some timers' arms through Timer.Walk
			for _, en := range live.e.Entries() {
				if _, ok := live.timerOf[en.H]; !ok {
					spare = append(spare, en.Seq)
				}
			}
			type arm struct {
				running bool
				expires Time
				seq     uint64
				img     []byte
			}
			arms := make([]arm, numTimers)
			for i, tm := range liveTimers {
				arms[i] = arm{tm.Running(), tm.expires, tm.armSeq, snapshottest.Encode(tm.Walk)}
			}
			for _, s := range sides {
				s.e.DropPending()
				clear(s.seqOf)
			}
			for i, a := range arms {
				if ops.next()%2 == 0 {
					continue // dropped and not restored: the live timer is stopped, the oracle's a zombie
				}
				err := snapshottest.Decode(a.img, liveTimers[i].Walk)
				// A Stop event cuts RunUntil short and still moves the clock to
				// the deadline, so an arm can lie behind it: corrupt input.
				if late := a.running && a.expires < le.Now(); late != errors.Is(err, snapshot.ErrCorrupt) {
					t.Fatalf("op %d: restoring timer %d armed at %v, clock at %v: error %v", n, i, a.expires, le.Now(), err)
				} else if !late {
					refTimers[i].restore(a.running, a.expires, a.seq)
				}
			}
		case 8: // timer start / stop / restart
			i, d, mode := ops.next()%numTimers, ops.span(), ops.next()%6
			switch mode {
			case 2:
				d = 0
			case 3: // tie with the earliest pending entry, whichever queue holds it
				if at, q := le.next(); q != noQueue {
					d = at - le.Now()
				}
			}
			for _, s := range sides {
				if mode < 2 { // on a running, expired, stopped or never-started timer alike
					s.timers[i].Stop()
				} else {
					s.timers[i].Start(d)
				}
			}
		case 9: // Entries() snapshot
			if got, want := live.entries(), ref.entries(); !slices.Equal(got, want) {
				t.Fatalf("op %d: Entries() differ:\n engine %v\n heap only %v", n, got, want)
			}
		}
		for _, f := range live.fired[firedBefore:] {
			if f.kind != timerFired {
				spare = append(spare, f.seq)
			}
		}
		// Everything before firedBefore was compared after earlier ops.
		if len(live.fired) != len(ref.fired) || !slices.Equal(live.fired[firedBefore:], ref.fired[firedBefore:]) {
			t.Fatalf("op %d (kind %d): fired sequences differ at %d:\n engine %v\n heap only %v", n, op,
				firstDiff(live.fired, ref.fired), tail(live.fired), tail(ref.fired))
		}
		if live.e.Now() != ref.e.Now() || live.pending() != ref.pending() || live.processed() != ref.processed() {
			t.Fatalf("op %d (kind %d): (now, pending, processed) = (%v, %d, %d), heap only (%v, %d, %d)", n, op,
				live.e.Now(), live.pending(), live.processed(), ref.e.Now(), ref.pending(), ref.processed())
		}
		checkTimerQueue(t, n, le, liveTimers)
	}
	// Drain what is left and compare the whole run once more.
	for _, s := range sides {
		for s.pending() > 0 {
			s.e.RunUntil(s.e.Now() + 1<<40)
		}
	}
	if !slices.Equal(live.fired, ref.fired) || live.e.Now() != ref.e.Now() || live.processed() != ref.processed() {
		t.Fatalf("after the final drain: %d fired at %v (%d processed), heap only %d at %v (%d processed)",
			len(live.fired), live.e.Now(), live.processed(), len(ref.fired), ref.e.Now(), ref.processed())
	}
	return n, mixed
}

func firstDiff(a, b []fired) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func tail(f []fired) []fired { return f[max(0, len(f)-4):] }

// TestEngineMatchesHeapOracle runs the differential oracle over seeded
// random programs, over 10^5 operations in all, and checks that the
// programs really interleave the heap and the timer queue.
func TestEngineMatchesHeapOracle(t *testing.T) {
	r := rng.New(20261015)
	ops, mixed := 0, 0
	for c := 0; c < 100; c++ {
		program := make([]byte, 24000)
		for i := range program {
			program[i] = byte(r.Uint64())
		}
		n, m := driveEngines(t, program)
		ops += n
		mixed += m
	}
	if ops < 100000 || mixed < ops/10 {
		t.Fatalf("drove %d operations, %d with both queues non-empty; want at least 10^5, a tenth of them mixed", ops, mixed)
	}
	t.Logf("%d operations, %d with both queues non-empty", ops, mixed)
}

// FuzzEngineOrder is the same oracle over fuzzer-chosen programs.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 10, 3, 5, 5, 200, 1, 9})
	f.Add([]byte{0, 1, 0, 63, 1, 2, 3, 7, 5, 255, 0, 4, 2, 1, 8, 9})
	f.Add([]byte{8, 1, 10, 1, 8, 2, 30, 0, 7, 0, 5, 40, 0, 4, 3, 4, 9, 6, 255, 1})
	// Timers: restarts earlier and later, Start(0), a tie with the queue's
	// front, stops, a drop with walks, then a run through the expiries.
	f.Add([]byte{0, 5, 1, 20, 8, 3, 200, 1, 2, 8, 4, 90, 1, 2, 8, 3, 10, 1, 2, 8, 5, 0, 0, 3,
		8, 6, 0, 1, 4, 8, 3, 0, 0, 0, 9, 7, 1, 0, 1, 1, 9, 5, 250, 1, 9})
	f.Fuzz(func(t *testing.T, program []byte) {
		driveEngines(t, program)
	})
}
