package rlc

import (
	"fmt"
	"sort"

	"outran/internal/mac"
	"outran/internal/sim"
)

// AM timer defaults matching the NS-3 LENA configuration the paper
// uses for its RLC AM case study (§6.3).
const (
	DefaultTPollRetransmit = 45 * sim.Millisecond
	DefaultTStatusProhibit = 10 * sim.Millisecond
	DefaultPollPDU         = 16
	DefaultMaxRetx         = 8
)

// StatusPDU is the AM receiver's ACK/NACK report.
type StatusPDU struct {
	AckSN uint32   // all SNs below this are acknowledged unless NACKed
	Nacks []uint32 // missing SNs below AckSN
}

// wireBytes is the modelled size of a status PDU.
func (s *StatusPDU) wireBytes() int { return 3 + 2*len(s.Nacks) }

// AMTx is the transmitting Acknowledged Mode entity. It maintains the
// three 3GPP priority levels: control PDUs first, retransmissions
// second, new data last (§4.4); OutRAN's MLFQ applies only inside the
// new-data queue.
type AMTx struct {
	eng *sim.Engine
	buf *txBuf
	// AssignSN as in UMTx.
	AssignSN func(*SDU)
	// OnDeliveryFail fires when a PDU is abandoned after exhausting
	// maxRetx retransmissions — the upper-layer delivery-failure signal
	// (3GPP: RLC indicates maxRetx to RRC, which declares radio link
	// failure). Before this hook the loss was visible only in the
	// private abandoned counter, i.e. the data vanished silently.
	OnDeliveryFail func(sn uint32, pdu *PDU)
	// OnRetx, when set, observes every retransmission the entity puts
	// on the air: the PDU's SN, its wire size, and how many times it
	// has now been retransmitted (the tracing layer's rlc_retx event).
	OnRetx func(sn uint32, bytes, attempt int)

	sn        uint32
	txed      map[uint32]*PDU // sent, unacknowledged
	retxQ     []uint32        // SNs awaiting retransmission, ascending
	retxCount map[uint32]int
	ctrlQ     []*StatusPDU // status PDUs to send back to the peer

	pollPDU       int
	sincePoll     int
	pollSN        uint32
	pollOut       bool
	tPollRetx     *sim.Timer
	maxRetx       int
	abandoned     uint64 // PDUs dropped after max retx
	retxBytesSent uint64
}

// NewAMTx builds an AM transmitter.
func NewAMTx(eng *sim.Engine, cfg TxBufConfig) *AMTx {
	t := &AMTx{
		eng:       eng,
		buf:       newTxBuf(cfg),
		txed:      make(map[uint32]*PDU),
		retxCount: make(map[uint32]int),
		pollPDU:   DefaultPollPDU,
		maxRetx:   DefaultMaxRetx,
	}
	t.tPollRetx = sim.NewTimer(eng, t.onPollRetransmit)
	return t
}

// Enqueue queues an SDU; false means tail-dropped.
func (t *AMTx) Enqueue(s *SDU) bool { return t.buf.enqueue(s) }

// PullAppend appends to out the transmissions for a MAC grant: control
// first, then retransmissions, then new data within the leftover
// opportunity. It can append several PDUs (retx PDUs keep their
// original SN). Appending lets a caller recycling transport-block
// storage (the ran arena) reuse slice capacity.
func (t *AMTx) PullAppend(out []*PDU, grant int) []*PDU {
	// 1. Control queue.
	for len(t.ctrlQ) > 0 {
		st := t.ctrlQ[0]
		cost := st.wireBytes()
		if grant < cost {
			return out
		}
		grant -= cost
		t.ctrlQ = t.ctrlQ[1:]
		// Control PDUs are delivered via the status path, not as data
		// PDUs; they consume grant only.
	}
	// 2. Retransmission queue.
	for len(t.retxQ) > 0 {
		sn := t.retxQ[0]
		pdu := t.txed[sn]
		if pdu == nil {
			t.retxQ = t.retxQ[1:]
			continue
		}
		if grant < pdu.Bytes {
			return out
		}
		grant -= pdu.Bytes
		t.retxQ = t.retxQ[1:]
		t.retxCount[sn]++
		t.retxBytesSent += uint64(pdu.Bytes)
		if t.retxCount[sn] > t.maxRetx {
			delete(t.txed, sn)
			delete(t.retxCount, sn)
			t.abandoned++
			if t.OnDeliveryFail != nil {
				t.OnDeliveryFail(sn, pdu)
			}
			continue
		}
		re := *pdu
		re.Retx = true
		if t.OnRetx != nil {
			t.OnRetx(sn, pdu.Bytes, t.retxCount[sn])
		}
		out = append(out, &re)
	}
	// 3. New data.
	for grant >= MinGrant && !t.buf.empty() {
		pdu := t.buf.buildPDU(grant, t.sn, t.AssignSN)
		if pdu == nil {
			break
		}
		t.sn++
		grant -= pdu.Bytes
		t.sincePoll++
		if t.sincePoll >= t.pollPDU && !t.pollOut {
			pdu.Poll = true
			t.sincePoll = 0
			t.pollOut = true
			t.pollSN = pdu.SN
			t.tPollRetx.Start(DefaultTPollRetransmit)
		}
		t.txed[pdu.SN] = pdu
		out = append(out, pdu)
	}
	return out
}

// OnStatus processes a status report from the peer receiver.
func (t *AMTx) OnStatus(st *StatusPDU) {
	if t.pollOut && st.AckSN > t.pollSN {
		t.pollOut = false
		t.tPollRetx.Stop()
	}
	nacked := make(map[uint32]bool, len(st.Nacks))
	for _, sn := range st.Nacks {
		nacked[sn] = true
	}
	// Order-free: each acked SN is deleted independently; no visit-order effect
	for sn := range t.txed {
		if sn < st.AckSN && !nacked[sn] {
			delete(t.txed, sn)
			delete(t.retxCount, sn)
		}
	}
	inRetx := make(map[uint32]bool, len(t.retxQ))
	for _, sn := range t.retxQ {
		inRetx[sn] = true
	}
	for _, sn := range st.Nacks {
		if t.txed[sn] != nil && !inRetx[sn] {
			t.retxQ = append(t.retxQ, sn)
		}
	}
	sort.Slice(t.retxQ, func(i, j int) bool { return t.retxQ[i] < t.retxQ[j] })
}

func (t *AMTx) onPollRetransmit() {
	if !t.pollOut {
		return
	}
	// Re-request status by retransmitting the polled PDU. Skip the
	// append when the SN is already queued: a duplicate entry would
	// retransmit the PDU twice and double-count toward maxRetx.
	if t.txed[t.pollSN] != nil && !t.inRetxQ(t.pollSN) {
		t.retxQ = append(t.retxQ, t.pollSN)
		sort.Slice(t.retxQ, func(i, j int) bool { return t.retxQ[i] < t.retxQ[j] })
	}
	t.tPollRetx.Start(DefaultTPollRetransmit)
}

// inRetxQ reports whether sn is queued for retransmission (the queue
// is kept sorted ascending).
func (t *AMTx) inRetxQ(sn uint32) bool {
	i := sort.Search(len(t.retxQ), func(i int) bool { return t.retxQ[i] >= sn })
	return i < len(t.retxQ) && t.retxQ[i] == sn
}

// Status reports buffer state for the MAC BSR; control and retx
// backlog count toward the total so the MAC keeps granting. The
// returned PerPriority slice aliases entity-owned scratch and is valid
// only until the next Status call; copy to retain.
//
//outran:allocfree
func (t *AMTx) Status(now sim.Time) mac.BufferStatus {
	st := t.buf.status(now)
	extra := 0
	for _, st := range t.ctrlQ {
		extra += st.wireBytes()
	}
	for _, sn := range t.retxQ {
		if p := t.txed[sn]; p != nil {
			extra += p.Bytes
		}
	}
	st.TotalBytes += extra
	return st
}

// QueuedSDUs returns the buffered (new-data) SDU count.
func (t *AMTx) QueuedSDUs() int { return t.buf.count }

// Close cancels the entity's timers. Call when tearing the entity
// down (e.g. RRC re-establishment) so orphaned callbacks stop
// re-arming on the engine.
func (t *AMTx) Close() { t.tPollRetx.Stop() }

// Audit verifies the transmitter's structural invariants — the
// per-TTI probe of the cell's runtime invariant checker (ran).
// Map-backed checks are written as commutative folds so the error
// reported (and therefore the checker's report) is identical across
// same-seed runs regardless of map iteration order.
func (t *AMTx) Audit() error {
	if err := t.buf.audit(); err != nil {
		return err
	}
	for i := 1; i < len(t.retxQ); i++ {
		if t.retxQ[i-1] >= t.retxQ[i] {
			return fmt.Errorf("rlc: retxQ not strictly ascending: %d then %d at index %d", t.retxQ[i-1], t.retxQ[i], i)
		}
	}
	maxTxed := int64(-1)
	// Order-free: max fold; commutative, no visit-order effect
	for sn := range t.txed {
		if int64(sn) > maxTxed {
			maxTxed = int64(sn)
		}
	}
	if maxTxed >= int64(t.sn) {
		return fmt.Errorf("rlc: unacked SN %d at or beyond next new SN %d", maxTxed, t.sn)
	}
	bad := int64(-1)
	// Order-free: min fold; commutative, no visit-order effect
	for sn, n := range t.retxCount {
		if (t.txed[sn] == nil || n < 1 || n > t.maxRetx) && (bad < 0 || int64(sn) < bad) {
			bad = int64(sn)
		}
	}
	if bad >= 0 {
		return fmt.Errorf("rlc: retxCount entry for SN %d orphaned or out of range", bad)
	}
	return nil
}

// Evictions returns queued SDUs pushed out by higher-priority arrivals.
func (t *AMTx) Evictions() int { return t.buf.evictionCount() }

// Abandoned returns PDUs dropped after exhausting retransmissions.
func (t *AMTx) Abandoned() uint64 { return t.abandoned }

// RetxBytes returns total retransmitted bytes (bandwidth waste metric).
func (t *AMTx) RetxBytes() uint64 { return t.retxBytesSent }

// AMRx is the receiving AM entity at the UE: PDUs are processed — and
// SDUs delivered — in SN order (held PDUs wait for retransmissions of
// the gap), with loss detection and status generation throttled by
// t-StatusProhibit.
type AMRx struct {
	eng     *sim.Engine
	Deliver func(*SDU)
	// SendStatus transmits a status PDU back to the AMTx (wired by the
	// cell through the uplink delay).
	SendStatus func(*StatusPDU)

	reassembly                 // sweeps partials orphaned by abandoned PDUs
	held       map[uint32]*PDU // received, waiting for in-order processing
	floor      uint32          // next SN to process
	highest    uint32          // highest SN received + 1
	nackTry    map[uint32]int
	prohibit   *sim.Timer
	gapTimer   *sim.Timer // re-sends status while a gap persists
	pending    bool       // status wanted while prohibited
}

// gapStatusPeriod is how often the receiver re-reports a persistent
// gap (the t-Reassembly-driven status retrigger of 38.322).
const gapStatusPeriod = 40 * sim.Millisecond

// maxNackReports bounds how often a missing SN is NACKed before the
// receiver gives up and advances past it (the transmitter abandons
// PDUs after maxRetx anyway).
const maxNackReports = 16

// amPartialAge is the cleanup horizon for partials orphaned by a
// given-up SN. Generous: AM retransmissions legitimately take several
// status round trips.
const amPartialAge = 10 * DefaultTReassembly

// NewAMRx builds an AM receiver.
func NewAMRx(eng *sim.Engine, deliver func(*SDU), sendStatus func(*StatusPDU)) *AMRx {
	rx := &AMRx{
		eng:        eng,
		Deliver:    deliver,
		SendStatus: sendStatus,
		held:       make(map[uint32]*PDU),
		nackTry:    make(map[uint32]int),
	}
	rx.prohibit = sim.NewTimer(eng, rx.onProhibitExpiry)
	rx.gapTimer = sim.NewTimer(eng, rx.onGapTimer)
	rx.sduTimer = sim.NewTimer(eng, func() { rx.expire(rx.eng.Now(), amPartialAge) })
	return rx
}

func (r *AMRx) onGapTimer() {
	if r.gapExists() {
		r.maybeSendStatus()
		r.gapTimer.Start(gapStatusPeriod)
	}
}

// Receive processes one PDU that survived the air interface.
func (r *AMRx) Receive(pdu *PDU) {
	if pdu.SN < r.floor {
		// Duplicate of an SN already processed (or given up on).
		if pdu.Poll {
			r.maybeSendStatus()
		}
		return
	}
	if _, dup := r.held[pdu.SN]; !dup {
		r.held[pdu.SN] = pdu
		if pdu.SN >= r.highest {
			r.highest = pdu.SN + 1
		}
		r.drain()
	}
	if gap := r.gapExists(); pdu.Poll || gap {
		r.maybeSendStatus()
		if gap && !r.gapTimer.Running() {
			r.gapTimer.Start(gapStatusPeriod)
		}
	}
}

// drain processes held PDUs in SN order, advancing past SNs that have
// been given up on.
func (r *AMRx) drain() {
	for r.floor < r.highest {
		if pdu, ok := r.held[r.floor]; ok {
			delete(r.held, r.floor)
			delete(r.nackTry, r.floor)
			r.floor++
			r.fold(pdu, r.eng.Now(), amPartialAge, r.Deliver)
			continue
		}
		if r.nackTry[r.floor] >= maxNackReports {
			delete(r.nackTry, r.floor)
			r.floor++
			continue
		}
		break
	}
}

func (r *AMRx) gapExists() bool {
	r.drain()
	return r.floor < r.highest
}

func (r *AMRx) buildStatus() *StatusPDU {
	r.drain()
	st := &StatusPDU{AckSN: r.highest}
	for sn := r.floor; sn < r.highest; sn++ {
		if _, ok := r.held[sn]; !ok {
			st.Nacks = append(st.Nacks, sn)
			r.nackTry[sn]++
		}
	}
	return st
}

func (r *AMRx) maybeSendStatus() {
	if r.prohibit.Running() {
		r.pending = true
		return
	}
	if r.SendStatus != nil {
		r.SendStatus(r.buildStatus())
	}
	r.prohibit.Start(DefaultTStatusProhibit)
}

func (r *AMRx) onProhibitExpiry() {
	if r.pending {
		r.pending = false
		if r.SendStatus != nil {
			r.SendStatus(r.buildStatus())
		}
		r.prohibit.Start(DefaultTStatusProhibit)
	}
}

// Discarded returns SDUs dropped because their missing bytes were in
// permanently given-up PDUs.
func (r *AMRx) Discarded() uint64 { return r.discarded }

// Close cancels the entity's timers (teardown; see AMTx.Close).
func (r *AMRx) Close() {
	r.prohibit.Stop()
	r.gapTimer.Stop()
	r.sduTimer.Stop()
}

// Audit verifies the receiver's structural invariants (see
// AMTx.Audit for the determinism note on the fold style).
func (r *AMRx) Audit() error {
	if r.floor > r.highest {
		return fmt.Errorf("rlc: AM rx floor %d beyond highest %d", r.floor, r.highest)
	}
	if window := int64(r.highest) - int64(r.floor); int64(len(r.held)) > window {
		return fmt.Errorf("rlc: AM rx holds %d PDUs in a window of %d", len(r.held), window)
	}
	bad := int64(-1)
	// Order-free: min fold; commutative, no visit-order effect
	for sn := range r.held {
		if (sn < r.floor || sn >= r.highest) && (bad < 0 || int64(sn) < bad) {
			bad = int64(sn)
		}
	}
	if bad >= 0 {
		return fmt.Errorf("rlc: held PDU SN %d outside window [%d,%d)", bad, r.floor, r.highest)
	}
	return nil
}
