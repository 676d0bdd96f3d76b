package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"outran/internal/probetest"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered at %d: %v", i, v)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	var e Engine
	fired := 0
	e.At(10, func() { fired++ })
	e.At(100, func() { fired++ })
	e.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
	if e.Now() != 50 {
		t.Fatalf("clock %v, want 50", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	e.RunUntil(200)
	if fired != 2 {
		t.Fatalf("fired %d after second run, want 2", fired)
	}
}

func TestAfterFromWithinEvent(t *testing.T) {
	var e Engine
	var times []Time
	e.At(10, func() {
		e.After(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 1 || times[0] != 15 {
		t.Fatalf("nested After fired at %v, want [15]", times)
	}
}

func TestStop(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestTimerRestart(t *testing.T) {
	var e Engine
	fired := 0
	tm := NewTimer(&e, func() { fired++ })
	tm.Start(10)
	e.At(5, func() {
		tm.Start(20) // restart: should fire at 25 only
		if n := e.Pending(); n != 1 {
			t.Errorf("%d entries queued after the restart, want the timer's one", n)
		}
	})
	e.RunUntil(100)
	if fired != 1 || e.Processed() != 2 {
		t.Fatalf("timer fired %d times in %d events, want once in 2", fired, e.Processed())
	}
}

func TestTimerStop(t *testing.T) {
	var e Engine
	fired := 0
	tm := NewTimer(&e, func() { fired++ })
	tm.Start(10)
	e.At(5, func() { tm.Stop() })
	e.RunUntil(100)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Running() {
		t.Fatal("stopped timer reports running")
	}
}

// TestTimerResetSemantics is the Start-as-Reset regression suite: a
// restart from within the timer's own window, a restart after expiry,
// and a stop-then-restart must each yield exactly one (correctly
// timed) firing per arm.
func TestTimerResetSemantics(t *testing.T) {
	var e Engine
	var fired []Time
	tm := NewTimer(&e, func() { fired = append(fired, e.Now()) })

	tm.Start(10)
	e.At(5, func() { tm.Start(20) })  // reset: the arm at 10 must not fire
	e.At(40, func() { tm.Start(10) }) // re-arm after expiry at 25
	e.At(60, func() { tm.Start(10) })
	e.At(65, func() { tm.Stop() })   // cancel the arm at 70
	e.At(80, func() { tm.Start(5) }) // restart after a stop
	e.RunUntil(200)

	want := []Time{25, 50, 85}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v (all: %v)", i, fired[i], want[i], fired)
		}
	}
}

// TestTimerStopNeverStarted documents that Stop on a fresh timer is a
// safe no-op and does not poison a later Start.
func TestTimerStopNeverStarted(t *testing.T) {
	var e Engine
	fired := 0
	tm := NewTimer(&e, func() { fired++ })
	tm.Stop() // never started: must be a no-op
	tm.Stop() // idempotent
	if tm.Running() {
		t.Fatal("stopped (never-started) timer reports running")
	}
	tm.Start(10)
	e.RunUntil(100)
	if fired != 1 {
		t.Fatalf("timer fired %d times after stop-then-start, want 1", fired)
	}
	tm.Stop() // already expired: still a no-op
	if tm.Running() {
		t.Fatal("expired timer reports running after Stop")
	}
}

func TestTimerRunningAndExpires(t *testing.T) {
	var e Engine
	tm := NewTimer(&e, func() {})
	if tm.Running() {
		t.Fatal("new timer running")
	}
	tm.Start(30)
	if !tm.Running() || tm.Expires() != 30 {
		t.Fatalf("running=%v expires=%v", tm.Running(), tm.Expires())
	}
	e.RunUntil(100)
	if tm.Running() {
		t.Fatal("expired timer still running")
	}
}

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 || Millisecond != 1e6 || Microsecond != 1e3 {
		t.Fatal("unit constants wrong")
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Millisecond).Milliseconds() != 3.0 {
		t.Fatal("Milliseconds conversion wrong")
	}
	if (1500 * Millisecond).String() != "1.5s" {
		t.Fatalf("String = %q", (1500 * Millisecond).String())
	}
}

// Property: for any batch of event times, execution order is sorted by
// time with ties in submission order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		var e Engine
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, off := range offsets {
			at := Time(off)
			i := i
			e.At(at, func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		for k := 1; k < len(got); k++ {
			if got[k].at < got[k-1].at {
				return false
			}
			if got[k].at == got[k-1].at && got[k].idx < got[k-1].idx {
				return false
			}
		}
		return len(got) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapShrinksAfterDrain is the regression test for the event queue
// pinning its peak capacity: after a large burst of events drains, the
// backing array must be compacted instead of holding the high-water
// mark for the rest of the run — for a burst scheduled out of order and
// for the same burst in order, mid-drain and at the end.
func TestHeapShrinksAfterDrain(t *testing.T) {
	const burst = 8192
	for _, c := range []struct {
		name string
		at   func(i int) Time
	}{
		{"heap", func(i int) Time { return Time(burst - i) }},
		{"in-order", func(i int) Time { return Time(i) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var e Engine
			for i := 0; i < burst; i++ {
				e.At(c.at(i), func() {})
			}
			peak := cap(e.pq)
			if peak < burst {
				t.Fatalf("capacity %d below burst size %d", peak, burst)
			}
			e.RunUntil(Time(burst - burst/8))
			if got := cap(e.pq); got > peak/2 || got < e.Pending() {
				t.Fatalf("%d of %d pending: cap %d, want at most half the peak %d", e.Pending(), burst, got, peak)
			}
			e.Run()
			if e.Pending() != 0 {
				t.Fatalf("queue not drained: %d pending", e.Pending())
			}
			if got := cap(e.pq); got > shrinkMinCap/2 {
				t.Fatalf("did not shrink after drain: cap %d (peak %d), want at most %d", got, peak, shrinkMinCap/2)
			}
		})
	}
	// Steady state: a small heap under shrinkMinCap never shrinks, so
	// push/pop cycles reuse its array without reallocating — 16 entries
	// in order and 16 out of order.
	var e Engine
	fill := func() {
		for i := 0; i < 16; i++ {
			e.At(e.Now()+Time(i), func() {})
			e.At(e.Now()+Time(16-i), func() {})
		}
	}
	fill()
	heapCap := cap(e.pq)
	for i := 0; i < 4; i++ {
		e.Run()
		fill()
		if cap(e.pq) != heapCap {
			t.Fatalf("small heap reallocated: cap %d -> %d", heapCap, cap(e.pq))
		}
	}
}

// TestHeapPushZeroAlloc pins the tentpole property: steady-state
// scheduling does not allocate. After warm-up, a push/pop cycle on a
// pre-grown heap must be allocation-free. The probe registry is keyed
// by //outran:allocfree annotation (probetest.Run enforces the match).
func TestHeapPushZeroAlloc(t *testing.T) {
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*Engine).At": func(t *testing.T) {
			var e Engine
			fn := func() {}
			allocs := testing.AllocsPerRun(1000, func() {
				e.At(e.Now(), fn)
				e.Run()
			})
			if allocs != 0 {
				t.Fatalf("steady-state schedule+run allocates %.1f/op, want 0", allocs)
			}
		},
		"(*Engine).Schedule": func(t *testing.T) {
			var e Engine
			var tm Timer // any pointer-shaped handler
			ev := Event{Kind: 1, Idx: 2, A: 3, B: 4, Ptr: &tm}
			allocs := testing.AllocsPerRun(1000, func() {
				e.Schedule(e.Now(), &tm, ev)
				e.pq.pop()
			})
			if allocs != 0 {
				t.Fatalf("Schedule with a full payload allocates %.1f/op, want 0", allocs)
			}
		},
		"(*Timer).Start": func(t *testing.T) {
			var e Engine
			tm := NewTimer(&e, func() {})
			allocs := testing.AllocsPerRun(1000, func() {
				tm.Start(10)
				e.Run()
			})
			if allocs != 0 {
				t.Fatalf("timer arm+fire allocates %.1f/op, want 0", allocs)
			}
		},
		"(*eventHeap).push": func(t *testing.T) {
			var h eventHeap
			fn := funcHandler(func() {})
			// Refill from empty on the same array each run, so push never
			// grows past the warm-up high-water mark. The second push
			// stops below its parent, the third sifts up to the root.
			allocs := testing.AllocsPerRun(1000, func() {
				h = h[:0]
				h.push(Entry{At: 20, H: fn})
				h.push(Entry{At: 30, H: fn})
				h.push(Entry{At: 10, H: fn})
			})
			if allocs != 0 {
				t.Fatalf("push/pop cycle allocates %.1f/op, want 0", allocs)
			}
		},
		"(*eventHeap).pop": func(t *testing.T) {
			var h eventHeap
			// Pre-grow past a few levels so pop sifts the root down.
			for i := 0; i < 31; i++ {
				h.push(Entry{At: Time(31 - i), Seq: uint64(i), H: funcHandler(func() {})})
			}
			allocs := testing.AllocsPerRun(1000, func() {
				en := h.pop()
				h.push(en)
			})
			if allocs != 0 {
				t.Fatalf("pop/push cycle allocates %.1f/op, want 0", allocs)
			}
		},
	})
}

// TestEntrySize pins the queue entry at 72 bytes: every sift moves
// whole entries, so the payload must stay small.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 72 {
		t.Fatalf("sim.Entry is %d bytes, want <= 72", got)
	}
}

// TestTimerWalk: a running timer's arm survives encode -> decode into a
// fresh engine with its (expiry, seq) and fires there; a stopped timer
// re-arms nothing; an arm before the restored clock is corrupt input,
// not ScheduleExact's panic.
func TestTimerWalk(t *testing.T) {
	var a Engine
	ta := NewTimer(&a, func() {})
	stoppedA := NewTimer(&a, func() {})
	stoppedA.Start(5)
	stoppedA.Stop()
	a.RunUntil(10)
	ta.Start(30)

	img := snapshottest.Encode(func(w *snapshot.Walker) { a.Walk(w); ta.Walk(w); stoppedA.Walk(w) })
	var b Engine
	fired := 0
	tb := NewTimer(&b, func() { fired++ })
	stoppedB := NewTimer(&b, func() { t.Error("a stopped timer fired after restore") })
	if err := snapshottest.Decode(img, func(w *snapshot.Walker) { b.Walk(w); tb.Walk(w); stoppedB.Walk(w) }); err != nil {
		t.Fatal(err)
	}
	if en := b.Entries(); len(en) != 1 || en[0].At != 40 || en[0].Seq != ta.armSeq || !tb.Running() || tb.Expires() != 40 {
		t.Fatalf("restored queue %+v, want the one live arm at (40, %d)", en, ta.armSeq)
	}
	b.Run()
	if fired != 1 || b.Now() != 40 {
		t.Fatalf("restored timer fired %d times, clock at %v", fired, b.Now())
	}

	// The same arm read back under a clock already past its expiry.
	var late Engine
	late.RunUntil(50)
	err := snapshottest.Decode(snapshottest.Encode(ta.Walk), NewTimer(&late, func() {}).Walk)
	if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "before the snapshot instant") {
		t.Fatalf("arm before the clock: decode error %v, want snapshot.ErrCorrupt for an arm before the snapshot instant", err)
	}
}

// TestTimerNegativeDelay: Start with a negative delay arms at the
// current instant and Expires says so — the expiry and the arm are one
// instant — so a checkpoint taken with that arm pending restores and
// fires it at the same instant.
func TestTimerNegativeDelay(t *testing.T) {
	var a Engine
	a.RunUntil(10)
	ta := NewTimer(&a, func() {})
	ta.Start(-5)
	if ta.Expires() != 10 {
		t.Fatalf("Start(-5) at 10 expires at %v, want 10", ta.Expires())
	}
	img := snapshottest.Encode(func(w *snapshot.Walker) { a.Walk(w); ta.Walk(w) })
	var b Engine
	var fired []Time
	tb := NewTimer(&b, func() { fired = append(fired, b.Now()) })
	if err := snapshottest.Decode(img, func(w *snapshot.Walker) { b.Walk(w); tb.Walk(w) }); err != nil {
		t.Fatal(err)
	}
	b.Run()
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("restored arm fired at %v, want once at 10", fired)
	}
}
