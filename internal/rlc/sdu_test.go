package rlc

import "testing"

// TestDequeCompactionInPlace pins the popFront compaction fix: once the head passes the compaction
// threshold the live tail slides down inside the same backing array —
// no allocation — FIFO order survives, and the vacated slots are
// nil'd so popped SDUs stay collectable.
func TestDequeCompactionInPlace(t *testing.T) {
	const n = 200 // head must exceed 64 and pass half the slice
	var d deque
	for i := 0; i < n; i++ {
		d.pushBack(mkSDU(100, 0, uint16(i)))
	}
	base := &d.items[0]
	for i := 0; i < n; i++ {
		s := d.popFront()
		if s == nil || s.Flow.SrcPort != uint16(i) {
			t.Fatalf("pop %d: got %v, want flow %d", i, s, i)
		}
		if d.head == 0 && i > 64 && i < n-1 {
			// Compaction just ran: same backing array, and every slot
			// past the live region must be nil.
			if &d.items[:1][0] != base {
				t.Fatalf("pop %d: compaction reallocated the backing array", i)
			}
			for j := len(d.items); j < cap(d.items); j++ {
				if d.items[:cap(d.items)][j] != nil {
					t.Fatalf("pop %d: vacated slot %d still pins an SDU", i, j)
				}
			}
		}
	}
	if d.len() != 0 || d.popFront() != nil {
		t.Fatal("deque not empty after draining")
	}

	// Steady-state drain must not allocate: once the backing array has
	// grown to its cycle capacity, a full drain/refill (including the
	// compactions it triggers) is allocation-free.
	sdus := make([]*SDU, n)
	cycle := func() {
		for i := 0; i < n; i++ {
			sdus[i] = d.popFront()
		}
		for i := 0; i < n; i++ {
			d.pushBack(sdus[i])
		}
	}
	for i := 0; i < n; i++ {
		d.pushBack(mkSDU(100, 0, uint16(i)))
	}
	cycle() // reach the steady-state capacity before measuring
	cycle()
	allocs := testing.AllocsPerRun(10, cycle)
	if allocs != 0 {
		t.Errorf("drain/refill cycle allocates %.1f/op, want 0", allocs)
	}
}
