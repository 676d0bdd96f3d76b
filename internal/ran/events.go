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
//	evExternal       -       key    -       -
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
	// evAMStatus is an RLC AM status PDU on the uplink. The UE's amTx is
	// read at fire time, so a status in flight across an RRC
	// re-establishment lands on the rebuilt entity.
	evAMStatus
	// evTrackerReset / evTrackerFreeze are the measurement-window
	// boundaries.
	evTrackerReset
	evTrackerFreeze
	// evExternal is an opaque event owned by the attached
	// ExternalHandler (fault injection), identified by its key.
	evExternal
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

// ExternalHandler is the subsystem behind the cell's external events:
// it schedules them through ScheduleExternal under keys of its own
// choosing and the cell hands each key back when the event fires —
// in the run that scheduled it or in one restored from a checkpoint.
type ExternalHandler interface {
	FireExternal(key uint64)
	// HasExternal reports whether key names an event the handler can
	// fire; a restore rejects a checkpoint holding any other key.
	HasExternal(key uint64) bool
}

// SetExternalHandler attaches the external-event handler. Attach it
// before scheduling external events and before RestoreSnapshot.
func (c *Cell) SetExternalHandler(h ExternalHandler) { c.ext = h }

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
			fr.sender.OnAck(ev.A)
		}
	case evTB:
		c.tbArrive(c.ues[ev.Idx], ev.Ptr.(*harqTB))
	case evAMStatus:
		c.ues[ev.Idx].amTx.OnStatus(ev.Ptr.(*rlc.StatusPDU))
	case evTrackerReset:
		c.Tracker.Reset()
	case evTrackerFreeze:
		c.Tracker.Freeze()
	case evExternal:
		c.ext.FireExternal(uint64(ev.A))
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

// ScheduleExternal schedules an event of the attached ExternalHandler
// at an absolute time, under the handler's opaque key.
//
//outran:allocfree
func (c *Cell) ScheduleExternal(at sim.Time, key uint64) {
	c.Eng.Schedule(at, c, sim.Event{Kind: evExternal, A: int64(key)})
}
