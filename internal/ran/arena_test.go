package ran

import (
	"testing"

	"outran/internal/sim"
	"outran/internal/transport"
)

// TestArenaRecyclesTransportBlocks: after a backlogged run, terminated
// TBs must be parked on the free list (serveUE draws from it), not
// left to the garbage collector.
func TestArenaRecyclesTransportBlocks(t *testing.T) {
	cell := backloggedCell(t)
	cell.Run(200 * sim.Millisecond)
	freeTBs := len(cell.tbFree)
	if freeTBs == 0 {
		t.Fatal("no transport blocks on the free list after a backlogged run")
	}
	st := cell.CollectStats()
	if st.TTIs == 0 {
		t.Fatal("cell did not run")
	}
	// The free list holds only idle TBs: bounded by the in-flight HARQ
	// population, not the TB count of the whole run.
	if uint64(freeTBs) >= cell.ctrHARQTx.Value() {
		t.Fatalf("free list (%d) as large as total TB transmissions (%d); TBs are not recycling",
			freeTBs, cell.ctrHARQTx.Value())
	}
}

// TestArenaRecyclesFlowRuntimes: sequential flows spaced past the
// graveyard hold must reuse the retired runtime — the graveyard
// drains back to (at most) the final flow instead of accumulating one
// corpse per flow.
func TestArenaRecyclesFlowRuntimes(t *testing.T) {
	cfg := smallConfig(SchedPF)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 8
	completed := 0
	var startNext func()
	startNext = func() {
		err := cell.StartFlow(0, 20*1024, FlowOptions{OnComplete: func(sim.Time) {
			completed++
			if completed < flows {
				// Well past flowHold (2×UplinkDelay), so the next
				// StartFlow reclaims this flow's runtime.
				cell.Eng.After(cell.flowHold()+10*sim.Millisecond, startNext)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	cell.Eng.At(sim.Millisecond, startNext)
	cell.Run(20 * sim.Second)
	if completed != flows {
		t.Fatalf("completed %d flows, want %d", completed, flows)
	}
	dead := len(cell.flowGrave) - cell.graveHead
	if dead != 1 {
		t.Fatalf("graveyard holds %d runtimes after %d sequential flows, want exactly 1 (each start reclaimed its predecessor)",
			dead, flows)
	}
}

// TestArenaHoldBlocksImmediateReuse: a runtime retired at time T must
// not be reclaimable at T (stale uplink-ACK closures may still be
// scheduled); it becomes reclaimable only strictly after the hold.
func TestArenaHoldBlocksImmediateReuse(t *testing.T) {
	cfg := smallConfig(SchedPF)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuple, err := cell.allocTuple(0)
	if err != nil {
		t.Fatal(err)
	}
	cell.retireFlow(&flowRuntime{
		sender:   transport.NewSender(cell.Eng, cell.cfg.Transport, tuple, 1),
		receiver: &transport.Receiver{},
	})
	if got := cell.reclaimFlow(); got != nil {
		t.Fatal("runtime reclaimed at retirement instant; stale ACK closures could still fire")
	}
	cell.Eng.After(cell.flowHold(), func() {
		if got := cell.reclaimFlow(); got != nil {
			t.Error("runtime reclaimed exactly at the hold boundary, want strictly after")
		}
	})
	cell.Eng.After(cell.flowHold()+sim.Nanosecond, func() {
		if got := cell.reclaimFlow(); got == nil {
			t.Error("runtime not reclaimable strictly after the hold")
		}
	})
	cell.Run(sim.Second)
}
