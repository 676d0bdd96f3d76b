package rlc

import (
	"fmt"
	"slices"

	"outran/internal/mac"
	"outran/internal/sim"
)

// DefaultTReassembly is the receiver-side reassembly window: a
// partially received SDU whose remaining segments do not arrive within
// this window is discarded (3GPP t-Reassembly).
const DefaultTReassembly = 40 * sim.Millisecond

// UMTx is the transmitting RLC Unacknowledged Mode entity of one UE's
// downlink bearer.
type UMTx struct {
	buf *txBuf
	sn  uint32
	// AssignSN is invoked when an SDU with an unassigned PDCP SN is
	// first scheduled (OutRAN's delayed SN numbering & ciphering).
	AssignSN func(*SDU)
}

// NewUMTx builds a UM transmitter with the given buffer configuration.
func NewUMTx(cfg TxBufConfig) *UMTx {
	return &UMTx{buf: newTxBuf(cfg)}
}

// Enqueue queues an SDU for transmission; false means tail-dropped.
func (t *UMTx) Enqueue(s *SDU) bool { return t.buf.enqueue(s) }

// Pull builds the next PDU for a MAC grant of the given size, or nil.
func (t *UMTx) Pull(grant int) *PDU {
	pdu := t.buf.buildPDU(grant, t.sn, t.AssignSN)
	if pdu != nil {
		t.sn++
	}
	return pdu
}

// PullAppend is Pull appending into out, the shape of AMTx.PullAppend.
func (t *UMTx) PullAppend(out []*PDU, grant int) []*PDU {
	if pdu := t.Pull(grant); pdu != nil {
		out = append(out, pdu)
	}
	return out
}

// Status reports the buffer state for the MAC BSR. The returned
// PerPriority slice aliases entity-owned scratch and is valid only
// until the next Status call; copy to retain.
//
//outran:allocfree
func (t *UMTx) Status(now sim.Time) mac.BufferStatus { return t.buf.status(now) }

// QueuedSDUs returns the buffered SDU count.
func (t *UMTx) QueuedSDUs() int { return t.buf.count }

// Evictions returns the number of queued SDUs pushed out by
// higher-priority arrivals.
func (t *UMTx) Evictions() int { return t.buf.evictionCount() }

// Abandoned and RetxBytes are AMTx's retransmission counters: UM never
// retransmits, so both are 0.
func (t *UMTx) Abandoned() uint64 { return 0 }
func (t *UMTx) RetxBytes() uint64 { return 0 }

// Audit verifies the transmitter's structural invariants (AMTx.Audit).
func (t *UMTx) Audit() error { return t.buf.audit() }

// Close is AMTx.Close: a UM transmitter holds no timer to cancel.
func (t *UMTx) Close() {}

// partialSDU tracks reassembly progress of one SDU at the receiver.
type partialSDU struct {
	sdu      *SDU
	received int
	lastSeen sim.Time
}

// reassembly folds in-order PDUs' segments back into SDUs and discards
// the partial SDUs whose remaining bytes stop arriving. The UM and AM
// receivers each embed one; they differ only in the age at which a
// partial SDU is given up (UM's t-Reassembly, AM's amPartialAge).
type reassembly struct {
	partials  []partialSDU // in ascending SDU id
	sduTimer  *sim.Timer   // runs expire while partial SDUs are held
	delivered uint64
	discarded uint64
}

// fold accounts one in-order PDU's segments at now, hands each SDU it
// completes to deliver (when set), and arms the expiry sweep at age
// while partial SDUs remain. A segment's SDU is looked up from the back:
// segments of the newest SDU come last.
//
//outran:allocfree
func (r *reassembly) fold(pdu *PDU, now, age sim.Time, deliver func(*SDU)) {
	for _, seg := range pdu.Segments {
		id := seg.SDU.ID
		i := len(r.partials)
		for i > 0 && r.partials[i-1].sdu.ID > id {
			i--
		}
		if i == 0 || r.partials[i-1].sdu.ID != id {
			r.partials = slices.Insert(r.partials, i, partialSDU{sdu: seg.SDU})
			i++
		}
		p := &r.partials[i-1]
		p.received += seg.Len
		p.lastSeen = now
		if p.received >= p.sdu.Size {
			sdu := p.sdu
			r.partials = slices.Delete(r.partials, i-1, i)
			r.delivered++
			if deliver != nil {
				deliver(sdu)
			}
		}
	}
	if len(r.partials) > 0 && !r.sduTimer.Running() {
		r.sduTimer.Start(age)
	}
}

// expire discards the partial SDUs that have seen no segment for age,
// and re-arms while any remain.
func (r *reassembly) expire(now, age sim.Time) {
	n := len(r.partials)
	r.partials = slices.DeleteFunc(r.partials, func(p partialSDU) bool { return now-p.lastSeen >= age })
	r.discarded += uint64(n - len(r.partials))
	if len(r.partials) > 0 {
		r.sduTimer.Start(age)
	}
}

// maxHeldPDUs bounds the reordering buffer (half the 13-bit UM SN
// window would be the spec bound; HARQ reordering needs only a few).
const maxHeldPDUs = 256

// UMRx is the receiving UM entity at the UE. PDUs are processed in SN
// order within a reordering window (hiding HARQ retransmission
// reordering from the transport, as real RLC does); complete SDUs are
// handed to Deliver in order. PDUs missing beyond t-Reassembly are
// skipped, and SDUs whose segments stall beyond t-Reassembly are
// discarded — the failure mode §4.4's segment promotion avoids.
type UMRx struct {
	eng         *sim.Engine
	TReassembly sim.Time
	Deliver     func(*SDU)

	expected uint32          // next SN to process (VR(UR))
	held     map[uint32]*PDU // received, waiting for in-order processing
	reassembly

	skipped  uint64 // PDUs given up on (gap expiry); kept for the checkpoint layout
	gapTimer *sim.Timer
}

// NewUMRx builds a UM receiver.
func NewUMRx(eng *sim.Engine, deliver func(*SDU)) *UMRx {
	rx := &UMRx{
		eng:         eng,
		TReassembly: DefaultTReassembly,
		Deliver:     deliver,
		held:        make(map[uint32]*PDU),
	}
	rx.gapTimer = sim.NewTimer(eng, rx.onGapExpiry)
	rx.sduTimer = sim.NewTimer(eng, func() { rx.expire(rx.eng.Now(), rx.TReassembly) })
	return rx
}

// Close cancels the receiver's timers (teardown; a torn-down entity's
// gap timer would otherwise keep re-arming on the engine forever).
func (r *UMRx) Close() {
	r.gapTimer.Stop()
	r.sduTimer.Stop()
}

// Receive accepts one PDU that survived the air interface.
func (r *UMRx) Receive(pdu *PDU) {
	if pdu.SN < r.expected {
		return // stale duplicate
	}
	if _, dup := r.held[pdu.SN]; dup {
		return
	}
	r.held[pdu.SN] = pdu
	r.drain()
	if len(r.held) > 0 {
		// A gap blocks in-order processing: start t-Reassembly, or
		// force past the gap if the window overflows.
		if len(r.held) > maxHeldPDUs {
			r.skipGap()
		} else if !r.gapTimer.Running() {
			r.gapTimer.Start(r.TReassembly)
		}
	} else {
		r.gapTimer.Stop()
	}
}

// drain processes consecutively available PDUs in SN order.
func (r *UMRx) drain() {
	for {
		pdu, ok := r.held[r.expected]
		if !ok {
			return
		}
		delete(r.held, r.expected)
		r.expected++
		r.fold(pdu, r.eng.Now(), r.TReassembly, r.Deliver)
	}
}

// skipGap advances expected to the lowest held SN, abandoning the
// missing PDUs.
func (r *UMRx) skipGap() {
	lowest := uint32(0)
	first := true
	// Order-free: min fold over the keys; commutative, order cannot matter
	for sn := range r.held {
		if first || sn < lowest {
			lowest = sn
			first = false
		}
	}
	if first {
		return
	}
	r.skipped += uint64(lowest - r.expected)
	r.expected = lowest
	r.drain()
}

func (r *UMRx) onGapExpiry() {
	if len(r.held) > 0 {
		r.skipGap()
	}
	if len(r.held) > 0 {
		r.gapTimer.Start(r.TReassembly)
	}
}

// Audit verifies the receiver's structural invariants: Receive skips
// a gap before the held PDUs outgrow their bound.
func (r *UMRx) Audit() error {
	if len(r.held) > maxHeldPDUs {
		return fmt.Errorf("rlc: UM rx holds %d PDUs, limit %d", len(r.held), maxHeldPDUs)
	}
	return nil
}

// Delivered returns the count of SDUs delivered upward.
func (r *UMRx) Delivered() uint64 { return r.delivered }

// Discarded returns the count of SDUs dropped by reassembly expiry.
func (r *UMRx) Discarded() uint64 { return r.discarded }
