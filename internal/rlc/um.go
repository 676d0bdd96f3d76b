package rlc

import (
	"fmt"
	"slices"

	"outran/internal/mac"
	"outran/internal/sim"
)

// DefaultTReassembly is t-Reassembly (TS 38.322 §5.2.2.2, §5.2.3.2):
// how long a UM receiver waits out a sequence gap, or a partial SDU that
// a newer SDU has overtaken, before it gives up on it, and how long an
// AM receiver waits out a gap before it NACKs it.
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

// QueuedBytes returns the bytes waiting to be sent, from the buffer's
// counters: unlike Status it changes no state.
func (t *UMTx) QueuedBytes() int { return t.buf.bytes }

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
	received int      // bytes from the SDU's start
	due      sim.Time // t-Reassembly's expiry once a newer SDU overtook it; 0 before
}

// maxGivenUp bounds a table's list of SDUs given up on. One whose last
// segment was lost stays on it until then; past the bound the oldest is
// forgotten, and a late segment of its SDU would count it again.
const maxGivenUp = 128

// reassembly folds in-order PDUs' segments back into SDUs; the UM and AM
// receivers each embed one. An SDU's segments are sent in offset order
// and folded in SN order, so a segment that does not continue its
// partial SDU follows bytes the receiver lost: the SDU is given up on,
// and so is one whose first segment to arrive is not its head. Each is
// counted once, as it is given up on, and its id is kept (gone) until
// its last segment, so its later segments are dropped uncounted.
type reassembly struct {
	partials  []partialSDU // in ascending SDU id
	gone      []uint64     // SDUs given up on whose last segment is to come, ascending
	delivered uint64
	discarded uint64
}

// fold accounts one in-order PDU's segments at now, hands each SDU it
// completes to deliver (when set), and starts t-Reassembly for the
// older partial SDUs a segment overtakes.
//
//outran:allocfree
func (r *reassembly) fold(pdu *PDU, now sim.Time, deliver func(*SDU)) {
	for _, seg := range pdu.Segments {
		if r.dropGone(seg) {
			r.overtake(r.search(seg.SDU.ID), now)
			continue
		}
		i := r.entry(seg.SDU)
		r.overtake(i, now)
		p := &r.partials[i]
		if seg.Offset != p.received {
			r.giveUp(i, seg.Last)
			continue
		}
		if p.received += seg.Len; p.received >= p.sdu.Size {
			sdu := p.sdu
			r.partials = slices.Delete(r.partials, i, i+1)
			r.delivered++
			if deliver != nil {
				deliver(sdu)
			}
		}
	}
}

// overtake starts t-Reassembly for the partial SDUs before index i.
func (r *reassembly) overtake(i int, now sim.Time) {
	for k := range r.partials[:i] {
		if r.partials[k].due == 0 {
			r.partials[k].due = now + DefaultTReassembly
		}
	}
}

// search returns the index of SDU id's partial, or the index it would
// take. It looks from the back: segments of the newest SDU come last.
func (r *reassembly) search(id uint64) int {
	i := len(r.partials)
	for i > 0 && r.partials[i-1].sdu.ID >= id {
		i--
	}
	return i
}

// entry returns the index of sdu's partial, opening one when there is
// none.
func (r *reassembly) entry(sdu *SDU) int {
	i := r.search(sdu.ID)
	if i == len(r.partials) || r.partials[i].sdu.ID != sdu.ID {
		r.partials = slices.Insert(r.partials, i, partialSDU{sdu: sdu})
	}
	return i
}

// dropGone reports whether seg belongs to an SDU given up on, and
// forgets that SDU at its last segment.
func (r *reassembly) dropGone(seg Segment) bool {
	g, dead := slices.BinarySearch(r.gone, seg.SDU.ID)
	if dead && seg.Last {
		r.gone = slices.Delete(r.gone, g, g+1)
	}
	return dead
}

// giveUp discards partial i and counts it; its id is kept unless last,
// its SDU's last segment, has been seen.
func (r *reassembly) giveUp(i int, last bool) {
	id := r.partials[i].sdu.ID
	r.partials = slices.Delete(r.partials, i, i+1)
	r.discarded++
	if !last {
		g, _ := slices.BinarySearch(r.gone, id)
		if r.gone = slices.Insert(r.gone, g, id); len(r.gone) > maxGivenUp {
			r.gone = slices.Delete(r.gone, 0, 1)
		}
	}
}

// lose gives up on the SDUs a PDU lost for good carried.
func (r *reassembly) lose(pdu *PDU) {
	for _, seg := range pdu.Segments {
		if !r.dropGone(seg) {
			r.giveUp(r.entry(seg.SDU), seg.Last)
		}
	}
}

// Delivered and Discarded count the SDUs the receiver delivered upward
// and gave up on.
func (r *reassembly) Delivered() uint64 { return r.delivered }
func (r *reassembly) Discarded() uint64 { return r.discarded }

// expire gives up on the partial SDUs whose t-Reassembly has expired,
// and returns the earliest expiry left, or 0.
func (r *reassembly) expire(now sim.Time) (next sim.Time) {
	for i := 0; i < len(r.partials); {
		switch p := r.partials[i]; {
		case p.due != 0 && p.due <= now:
			r.giveUp(i, false)
			continue
		case p.due != 0 && (next == 0 || p.due < next):
			next = p.due
		}
		i++
	}
	return next
}

// maxHeldPDUs bounds the reordering buffer (half the 13-bit UM SN
// window would be the spec bound; HARQ reordering needs only a few).
const maxHeldPDUs = 256

// UMRx is the receiving UM entity at the UE. PDUs are processed in SN
// order within a reordering window (hiding HARQ retransmission
// reordering from the transport, as real RLC does); complete SDUs are
// handed to Deliver. It gives up only on t-Reassembly (TS 38.322
// §5.2.2), started once something newer overtakes: a later SN skips a
// gap, a newer SDU discards a partial one (the failure mode §4.4's
// segment promotion avoids). A receiver that hears nothing waits.
type UMRx struct {
	eng     *sim.Engine
	Deliver func(*SDU)

	expected uint32          // next SN to process (VR(UR))
	held     map[uint32]*PDU // received, waiting for in-order processing
	reassembly

	skipped  uint64     // PDUs given up on at a gap
	gapTimer *sim.Timer // t-Reassembly for the gap below the held PDUs
	sduTimer *sim.Timer // t-Reassembly for the earliest overtaken partial SDU
}

// NewUMRx builds a UM receiver.
func NewUMRx(eng *sim.Engine, deliver func(*SDU)) *UMRx {
	rx := &UMRx{
		eng:     eng,
		Deliver: deliver,
		held:    make(map[uint32]*PDU),
	}
	rx.gapTimer = sim.NewTimer(eng, rx.onGapExpiry)
	rx.sduTimer = sim.NewTimer(eng, rx.armReassembly)
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
			r.gapTimer.Start(DefaultTReassembly)
		}
	} else {
		r.gapTimer.Stop()
	}
	r.armReassembly()
}

// armReassembly discards the partial SDUs whose t-Reassembly has
// expired and arms the timer for the next expiry.
func (r *UMRx) armReassembly() {
	if next := r.expire(r.eng.Now()); next != 0 && !r.sduTimer.Running() {
		r.sduTimer.Start(next - r.eng.Now())
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
		r.fold(pdu, r.eng.Now(), r.Deliver)
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
		r.gapTimer.Start(DefaultTReassembly)
	}
	r.armReassembly()
}

// Audit verifies the receiver's structural invariants: Receive skips
// a gap before the held PDUs outgrow their bound.
func (r *UMRx) Audit() error {
	if len(r.held) > maxHeldPDUs {
		return fmt.Errorf("rlc: UM rx holds %d PDUs, limit %d", len(r.held), maxHeldPDUs)
	}
	return nil
}

// Skipped returns the count of PDUs given up on at a sequence gap.
func (r *UMRx) Skipped() uint64 { return r.skipped }
