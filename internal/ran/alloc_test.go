package ran

import (
	"testing"

	"outran/internal/analysis/probetest"
	"outran/internal/mac"
	"outran/internal/rlc"
	"outran/internal/sim"
	"outran/internal/workload"
)

// backloggedCell builds a cell with one large in-flight flow and runs
// it long enough that the RLC buffers and per-UE CQI state are warm.
func backloggedCell(t *testing.T) *Cell {
	t.Helper()
	cfg := smallConfig(SchedPF)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell.Eng.At(1*sim.Millisecond, func() {
		if err := cell.StartFlow(0, 5*1024*1024, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	cell.Run(50 * sim.Millisecond)
	return cell
}

// scheduleProbe asserts one of the cell's schedule sites allocates
// nothing in the steady state. The queue is emptied after every call,
// so each push lands in capacity the warm-up call already grew.
func scheduleProbe(site func(c *Cell)) func(t *testing.T) {
	return func(t *testing.T) {
		cell := backloggedCell(t)
		allocs := testing.AllocsPerRun(100, func() {
			site(cell)
			cell.Eng.DropPending()
		})
		if allocs != 0 {
			t.Errorf("%.1f allocs/call, want 0", allocs)
		}
	}
}

// TestCellZeroAllocs pins the per-TTI cell paths annotated
// //outran:allocfree with AllocsPerRun probes; probetest.Run fails
// when the registry and the annotations drift apart.
func TestCellZeroAllocs(t *testing.T) {
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*ueCtx).txStatus": func(t *testing.T) {
			cell := backloggedCell(t)
			ue := cell.ues[0]
			now := cell.Eng.Now()
			if st := ue.txStatus(now); st.TotalBytes == 0 {
				t.Fatal("UE 0 not backlogged; probe would be vacuous")
			}
			allocs := testing.AllocsPerRun(100, func() {
				ue.txStatus(now)
			})
			if allocs != 0 {
				t.Errorf("txStatus: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Cell).reportCQIAt": func(t *testing.T) {
			cell := backloggedCell(t)
			now := cell.Eng.Now()
			allocs := testing.AllocsPerRun(100, func() {
				cell.reportCQIAt(now)
			})
			if allocs != 0 {
				t.Errorf("reportCQIAt: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Cell).measureCQI": func(t *testing.T) {
			cell := backloggedCell(t)
			ue := cell.ues[1]
			cell.reportCQIAt(cell.Eng.Now())
			if !ue.cqiDue {
				t.Fatal("no report outstanding; probe would be vacuous")
			}
			allocs := testing.AllocsPerRun(100, func() {
				ue.cqiDue = true
				cell.measureCQI(ue)
			})
			if allocs != 0 {
				t.Errorf("measureCQI: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Cell).newTB": func(t *testing.T) {
			cell := backloggedCell(t)
			// Warm the free list so the steady-state path is exercised.
			cell.putTB(&harqTB{pdus: make([]*rlc.PDU, 0, 4), subbands: make([]int, 0, 4)})
			allocs := testing.AllocsPerRun(100, func() {
				cell.putTB(cell.newTB())
			})
			if allocs != 0 {
				t.Errorf("newTB/putTB cycle: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Cell).putTB": func(t *testing.T) {
			cell := backloggedCell(t)
			tb := &harqTB{pdus: make([]*rlc.PDU, 1, 4), subbands: make([]int, 2, 4)}
			allocs := testing.AllocsPerRun(100, func() {
				cell.putTB(tb)
				tb = cell.newTB()
			})
			if allocs != 0 {
				t.Errorf("putTB: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Cell).transmitTB": func(t *testing.T) {
			tb := &harqTB{bits: 800}
			scheduleProbe(func(c *Cell) { c.transmitTB(c.ues[0], tb) })(t)
		},
		"(*arrivalCursor).queue": func(t *testing.T) {
			flows := make([]workload.FlowSpec, 200)
			for i := range flows {
				flows[i] = workload.FlowSpec{Start: sim.Second + sim.Time(i), UE: 1, Size: 5000, Incast: true}
			}
			var cur *arrivalCursor
			scheduleProbe(func(c *Cell) {
				if cur == nil {
					c.ScheduleSource(workload.SliceSource(flows), 0, 0)
					cur = c.cursors[0]
					return
				}
				cur.arrived(c)
			})(t)
		},
		"(*Cell).ScheduleTrackerReset":  scheduleProbe(func(c *Cell) { c.ScheduleTrackerReset(c.Eng.Now()) }),
		"(*Cell).ScheduleTrackerFreeze": scheduleProbe(func(c *Cell) { c.ScheduleTrackerFreeze(c.Eng.Now()) }),
		"(*Cell).ScheduleExternal":      scheduleProbe(func(c *Cell) { c.ScheduleExternal(c.Eng.Now(), 1<<63|7) }),
		"(*Cell).rbStats": func(t *testing.T) {
			cell := backloggedCell(t)
			alloc := mac.NewAllocation(cell.grid.NumRB)
			for b := range alloc.RBOwner {
				alloc.RBOwner[b] = 0
			}
			cell.rbStats(alloc)
			if g := cell.grants[0]; g.bits == 0 || g.numRB != cell.grid.NumRB || len(g.sbs) != len(cell.macUsers[0].SubbandCQI) {
				t.Fatalf("rbStats: UE 0 got %d bits over %d RBs in subbands %v; want the full grid", g.bits, g.numRB, g.sbs)
			}
			allocs := testing.AllocsPerRun(100, func() {
				cell.rbStats(alloc)
			})
			if allocs != 0 {
				t.Errorf("rbStats: %.1f allocs/call, want 0", allocs)
			}
		},
	})
}
