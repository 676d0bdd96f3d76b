package ran

import (
	"outran/internal/ip"
	"outran/internal/rlc"
	"outran/internal/sim"
)

// The cell's scheduled work. Every event the cell puts on its engine is
// a (kind, payload) value handled by Cell.Fire — the engine queue is the
// only record of it. A checkpoint encodes the queue's cell entries and a
// restore re-schedules the decoded values, so live and resumed runs
// dispatch through the same code. The kind values are the checkpoint's
// kind bytes; zero is reserved so a zeroed byte never decodes as a
// valid kind.
//
//	kind             Idx     A      B       Ptr
//	evArrival        flags   size   raw UE  *arrivalCursor
//	evPacket         UE      -      -       *ip.Packet
//	evAck            -       rel    -       *flowRuntime
//	evTB             UE      -      -       *harqTB
//	evAMStatus       UE      -      -       *rlc.StatusPDU
//	evTrackerReset   -       -      -       -
//	evTrackerFreeze  -       -      -       -
//	evTTI            -       -      -       -
//	evCQI            -       -      -       -
//	evFlowReset      -       -      -       -
const (
	// evArrival is a workload flow arrival (ScheduleSource). A
	// checkpoint records it through its cursor, not as an entry.
	evArrival uint8 = iota + 1
	// evPacket is a downlink packet crossing the wired backhaul.
	evPacket
	// evAck is a transport ACK crossing the uplink path. It points at
	// the flow runtime it was issued for: the graveyard hold (arena.go)
	// keeps that runtime from being recycled while the ACK is in flight,
	// and a completed sender ignores it.
	evAck
	// evTB is a transport block one TTI out on the air interface.
	evTB
	// evAMStatus is an RLC AM status PDU on the uplink. The UE's
	// transmitter is read at fire time; a re-establishment zeroes the
	// statuses in flight (flushBearer), so the rebuilt one ignores them.
	evAMStatus
	// evTrackerReset / evTrackerFreeze are the measurement-window
	// boundaries.
	evTrackerReset
	evTrackerFreeze
	_ // 8 was a fault injector's keyed event: it stays unknown
	// evTTI, evCQI and evFlowReset are the cell's clocks: Algorithm 1's
	// per-TTI run (§4.3), the UEs' CQI reports and the §6.3 MLFQ reset.
	// A tick runs its work, then queues the next tick one period on, so
	// the work's own events take the earlier seqs. NewCell queues the
	// first of each, in this order.
	evTTI
	evCQI
	evFlowReset
)

// evArrival option bits (Event.Idx).
const (
	arrivalIncast = 1 << iota
	arrivalSkipRecord
)

func arrivalFlags(incast, skip bool) (flags int32) {
	if incast {
		flags |= arrivalIncast
	}
	if skip {
		flags |= arrivalSkipRecord
	}
	return flags
}

// Fire dispatches one of the cell's scheduled events.
func (c *Cell) Fire(ev sim.Event) {
	switch ev.Kind {
	case evArrival:
		opt := FlowOptions{Incast: ev.Idx&arrivalIncast != 0, SkipRecord: ev.Idx&arrivalSkipRecord != 0}
		if err := c.StartFlow(int(ev.B)%len(c.ues), ev.A, opt); err != nil {
			panic(err)
		}
		if cur, _ := ev.Ptr.(*arrivalCursor); cur != nil {
			cur.arrived(c)
		}
	case evPacket:
		c.deliverToXNB(c.ues[ev.Idx], *ev.Ptr.(*ip.Packet))
	case evAck:
		// A restored ACK whose flow was already torn down carries a
		// runtime with no sender: a counted no-op.
		if fr := ev.Ptr.(*flowRuntime); fr.sender != nil {
			fr.sender.OnAckSACK(ev.A, ev.A+ev.B>>32, ev.A+ev.B&(1<<32-1))
		}
	case evTB:
		c.tbArrive(c.ues[ev.Idx], ev.Ptr.(*harqTB))
	case evAMStatus:
		ue := c.ues[ev.Idx]
		ue.tx.(*rlc.AMTx).OnStatus(ev.Ptr.(*rlc.StatusPDU))
		c.wake(ue) // its NACKs queue retransmissions
	case evTrackerReset:
		c.Tracker.Reset()
	case evTrackerFreeze:
		c.Tracker.Freeze()
	case evTTI:
		c.onTTI()
		c.after(c.grid.TTI(), ev)
	case evCQI:
		c.reportCQIAt(c.Eng.Now())
		c.after(c.cfg.CQIPeriod, ev)
	case evFlowReset:
		c.resetFlowStates()
		c.after(c.cfg.OutRAN.ResetPeriod, ev)
	}
}

// after schedules ev for the cell d from now.
func (c *Cell) after(d sim.Time, ev sim.Event) {
	c.Eng.Schedule(c.Eng.Now()+max(d, 0), c, ev)
}

// ScheduleTrackerReset schedules the measurement-window reset.
//
//outran:allocfree
func (c *Cell) ScheduleTrackerReset(at sim.Time) {
	c.Eng.Schedule(at, c, sim.Event{Kind: evTrackerReset})
}

// ScheduleTrackerFreeze schedules the measurement-window freeze.
//
//outran:allocfree
func (c *Cell) ScheduleTrackerFreeze(at sim.Time) {
	c.Eng.Schedule(at, c, sim.Event{Kind: evTrackerFreeze})
}
