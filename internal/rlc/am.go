package rlc

import (
	"cmp"
	"fmt"
	"slices"

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
	AckSN uint32 // all SNs below this are acknowledged unless NACKed
	Nacks []Nack // missing SNs below AckSN, ascending
}

// Nack reports SN missing from payload byte SO on: 0 for all of it, more
// when the receiver holds the start of a re-segmented retransmission.
type Nack struct {
	SN uint32
	SO int
}

// AMTx is the transmitting Acknowledged Mode entity. It serves
// retransmissions before new data (§4.4); OutRAN's MLFQ applies only
// inside the new-data queue. Status reports travel on the uplink (the
// cell's evAMStatus), so no control PDU competes for a downlink grant.
type AMTx struct {
	eng *sim.Engine
	buf *txBuf
	// AssignSN as in UMTx.
	AssignSN func(*SDU)
	// OnDeliveryFail fires when a PDU is abandoned after exhausting
	// maxRetx retransmissions — the upper-layer delivery-failure signal
	// (3GPP: RLC indicates maxRetx to RRC, which declares radio link
	// failure) and the one point its peer receiver may give the SN up.
	OnDeliveryFail func(sn uint32, pdu *PDU)
	// OnRetx, when set, observes every retransmission the entity puts
	// on the air: the PDU's SN, its wire size, and how many times it
	// has now been retransmitted (the tracing layer's rlc_retx event).
	OnRetx func(sn uint32, bytes, attempt int)
	// Wake, when set, fires when t-PollRetransmit queues a
	// retransmission: the one way an idle entity gains bytes to send on
	// its own clock.
	Wake func()

	sn        uint32
	txed      map[uint32]*PDU // sent, unacknowledged
	retxQ     []retx          // awaiting retransmission, ascending SN
	retxCount map[uint32]int

	pollPDU       int
	sincePoll     int    // PDU_WITHOUT_POLL
	pollSN        uint32 // POLL_SN: the highest SN sent when the last poll went out
	pollNext      bool   // t-PollRetransmit expired: the next PDU sent polls
	tPollRetx     *sim.Timer
	maxRetx       int
	abandoned     uint64 // PDUs dropped after max retx
	retxBytesSent uint64
}

// retx is one SN awaiting retransmission from payload byte so on, and
// whether this retransmission has begun: its first piece sent and
// counted toward maxRetx.
type retx struct {
	sn    uint32
	so    int
	begun bool
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

// PullAppend appends to out the transmissions for a MAC grant:
// retransmissions first, then new data. It can append several PDUs
// (retx PDUs keep their original SN); a retransmission larger than the
// grant is re-segmented, and the next grant goes on with its rest.
// Appending lets a caller recycling transport-block storage (the ran
// arena) reuse slice capacity.
func (t *AMTx) PullAppend(out []*PDU, grant int) []*PDU {
	start := len(out)
	// 1. Retransmission queue.
	for len(t.retxQ) > 0 {
		q := &t.retxQ[0]
		sn, pdu := q.sn, t.txed[q.sn]
		if pdu == nil {
			t.retxQ = t.retxQ[1:]
			continue
		}
		re := piece(pdu, q.so, grant)
		if re == nil {
			return out
		}
		if !q.begun {
			q.begun = true
			if t.retxCount[sn]++; t.retxCount[sn] > t.maxRetx {
				t.retxQ = t.retxQ[1:]
				delete(t.txed, sn)
				delete(t.retxCount, sn)
				t.abandoned++
				if t.OnDeliveryFail != nil {
					t.OnDeliveryFail(sn, pdu)
				}
				continue
			}
		}
		grant -= re.Bytes
		t.retxBytesSent += uint64(re.Bytes)
		if t.OnRetx != nil {
			t.OnRetx(sn, re.Bytes, t.retxCount[sn])
		}
		out = append(out, re)
		t.count(re)
		if q.so += re.PayloadBytes(); re.Whole != 0 && q.so < re.Whole {
			return out
		}
		t.retxQ = t.retxQ[1:]
	}
	// 2. New data.
	for grant >= MinGrant && !t.buf.empty() {
		pdu := t.buf.buildPDU(grant, t.sn, t.AssignSN)
		if pdu == nil {
			break
		}
		t.sn++
		grant -= pdu.Bytes
		t.txed[pdu.SN] = pdu
		out = append(out, pdu)
		t.count(pdu)
	}
	// The last PDU that leaves both buffers empty polls. When an
	// abandonment emptied them instead, t-PollRetransmit covers what is
	// still unacknowledged.
	if t.QueuedBytes() == 0 {
		if n := len(out); n > start {
			t.poll(out[n-1])
		} else if len(t.txed) > 0 && !t.tPollRetx.Running() {
			t.tPollRetx.Start(DefaultTPollRetransmit)
		}
	}
	return out
}

// count counts a PDU just assembled toward the poll TS 38.322 §5.3.3.2
// asks for every pollPDU PDUs, and polls on the first PDU after
// t-PollRetransmit expired.
func (t *AMTx) count(pdu *PDU) {
	if t.sincePoll++; t.sincePoll >= t.pollPDU || t.pollNext {
		t.poll(pdu)
	}
}

// poll sets the poll bit of a PDU being sent and (re)starts
// t-PollRetransmit for the highest SN sent.
func (t *AMTx) poll(pdu *PDU) {
	pdu.Poll = true
	t.sincePoll, t.pollNext, t.pollSN = 0, false, t.sn-1
	t.tPollRetx.Start(DefaultTPollRetransmit)
}

// piece returns the retransmission of p's payload from byte so on that
// fits a grant-byte transmission: a copy of p when all of it fits, else an
// AMD PDU segment ending where the grant does; nil when no useful part
// of it fits.
func piece(p *PDU, so, grant int) *PDU {
	if so == 0 && p.Bytes <= grant {
		re := *p
		re.Retx, re.Poll = true, false
		return &re
	}
	re := &PDU{SN: p.SN, Retx: true, SO: so, Whole: p.PayloadBytes()}
	budget, at := grant-pduFixedHeader-soHeader, 0
	for _, seg := range p.Segments {
		skip := max(so-at, 0) // bytes of seg already sent
		if at += seg.Len; skip >= seg.Len {
			continue
		}
		if len(re.Segments) > 0 {
			budget -= perExtraSegment
		}
		take := min(seg.Len-skip, budget)
		if take < minUsefulPayload && take < seg.Len-skip {
			break
		}
		re.Segments = append(re.Segments, Segment{SDU: seg.SDU, Offset: seg.Offset + skip, Len: take, Last: seg.Last && skip+take == seg.Len})
		if budget -= take; skip+take < seg.Len {
			break
		}
	}
	if len(re.Segments) == 0 {
		return nil
	}
	payload := re.PayloadBytes()
	re.Bytes = headerBytes(len(re.Segments)) + soHeader + payload
	return re
}

// OnStatus processes a status report from the peer receiver.
func (t *AMTx) OnStatus(st *StatusPDU) {
	if st.AckSN > t.pollSN {
		t.tPollRetx.Stop()
	}
	nacked := make(map[uint32]bool, len(st.Nacks))
	for _, n := range st.Nacks {
		nacked[n.SN] = true
	}
	// Order-free: each acked SN is deleted independently; no visit-order effect
	for sn := range t.txed {
		if sn < st.AckSN && !nacked[sn] {
			delete(t.txed, sn)
			delete(t.retxCount, sn)
		}
	}
	for _, n := range st.Nacks {
		t.queueRetx(n.SN, n.SO)
	}
}

// queueRetx queues an unacknowledged SN for retransmission from payload
// byte so on, once: retxQ stays ascending, and a duplicate entry would
// retransmit the PDU twice and double-count toward maxRetx. An entry not
// yet begun moves on to so, the receiver holding more of it by now.
func (t *AMTx) queueRetx(sn uint32, so int) {
	i, queued := slices.BinarySearchFunc(t.retxQ, sn, func(q retx, sn uint32) int { return cmp.Compare(q.sn, sn) })
	switch {
	case queued && !t.retxQ[i].begun:
		t.retxQ[i].so = max(t.retxQ[i].so, so)
	case !queued && t.txed[sn] != nil:
		t.retxQ = slices.Insert(t.retxQ, i, retx{sn: sn, so: so})
	}
}

// onPollRetransmit is t-PollRetransmit's expiry (§5.3.3.4): the next
// PDU sent polls. With nothing queued to carry the poll, the highest
// unacknowledged SN is retransmitted: the polled one, TX_Next − 1, or,
// once that is acked or given up, the next below it.
func (t *AMTx) onPollRetransmit() {
	t.pollNext = true
	if t.QueuedBytes() > 0 || len(t.txed) == 0 {
		return
	}
	var sn uint32
	// Order-free: max fold; commutative, no visit-order effect
	for s := range t.txed {
		sn = max(sn, s)
	}
	t.queueRetx(sn, 0)
	if t.Wake != nil {
		t.Wake()
	}
}

// Status reports buffer state for the MAC BSR; retx backlog counts
// toward the total so the MAC keeps granting. The returned PerPriority
// slice aliases entity-owned scratch and is valid only until the next
// Status call; copy to retain.
//
//outran:allocfree
func (t *AMTx) Status(now sim.Time) mac.BufferStatus {
	st := t.buf.status(now)
	st.TotalBytes += t.retxBytes()
	return st
}

// retxBytes is the retransmission backlog: the bytes of every queued
// SN still unacknowledged.
func (t *AMTx) retxBytes() (n int) {
	for _, q := range t.retxQ {
		if p := t.txed[q.sn]; p != nil {
			n += p.Bytes
		}
	}
	return n
}

// QueuedSDUs returns the buffered (new-data) SDU count.
func (t *AMTx) QueuedSDUs() int { return t.buf.count }

// QueuedBytes returns the bytes waiting to be sent, new data and
// retransmissions, from the entity's counters: unlike Status it changes
// no state.
func (t *AMTx) QueuedBytes() int { return t.buf.bytes + t.retxBytes() }

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
		if t.retxQ[i-1].sn >= t.retxQ[i].sn {
			return fmt.Errorf("rlc: retxQ not strictly ascending: %d then %d at index %d", t.retxQ[i-1].sn, t.retxQ[i].sn, i)
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
// SDUs delivered — in SN order. It NACKs a gap only once t-Reassembly
// has waited it out (TS 38.322 §5.2.3.2.3–4), so a HARQ retransmission
// on its way is not repaired twice, and reports on a poll and at
// t-Reassembly's expiry, throttled by t-StatusProhibit. It skips an SN
// only once its transmitter has abandoned it (Abandon).
type AMRx struct {
	eng     *sim.Engine
	Deliver func(*SDU)
	// SendStatus transmits a status PDU back to the AMTx (wired by the
	// cell through the uplink delay).
	SendStatus func(*StatusPDU)

	reassembly
	held      map[uint32]*PDU   // received, waiting for in-order processing
	abandoned map[uint32]*PDU   // given up by the transmitter, waiting likewise
	pieces    map[uint32][]*PDU // re-segmented retransmissions until whole, in SO order
	floor     uint32            // RX_Next: next SN to process
	highest   uint32            // RX_Next_Highest: highest SN received or abandoned + 1
	// highestStatus (RX_Highest_Status) bounds what a status ACKs and
	// NACKs; t-Reassembly's expiry moves it to the first SN missing from
	// trigger (RX_Next_Status_Trigger, highest when the timer started).
	highestStatus, trigger uint32
	// pollUntil is one past the highest polled SN not yet answered: a
	// poll is answered once highestStatus passes it. 0 when none waits.
	pollUntil   uint32
	tReassembly *sim.Timer
	prohibit    *sim.Timer
	pending     bool // status wanted while prohibited
}

// NewAMRx builds an AM receiver.
func NewAMRx(eng *sim.Engine, deliver func(*SDU), sendStatus func(*StatusPDU)) *AMRx {
	rx := &AMRx{
		eng:        eng,
		Deliver:    deliver,
		SendStatus: sendStatus,
		held:       make(map[uint32]*PDU),
		abandoned:  make(map[uint32]*PDU),
		pieces:     make(map[uint32][]*PDU),
	}
	rx.prohibit = sim.NewTimer(eng, rx.onProhibitExpiry)
	rx.tReassembly = sim.NewTimer(eng, rx.onReassemblyExpiry)
	return rx
}

// Receive processes one PDU that survived the air interface.
func (r *AMRx) Receive(pdu *PDU) {
	if pdu.Poll {
		r.pollUntil = max(r.pollUntil, pdu.SN+1)
	}
	if _, dup := r.held[pdu.SN]; dup || pdu.SN < r.floor {
		r.answerPoll()
		return
	}
	r.highest = max(r.highest, pdu.SN+1)
	if whole := r.assemble(pdu); whole != nil {
		delete(r.abandoned, pdu.SN) // a copy got through after all
		r.held[pdu.SN] = whole
		r.drain()
	}
	r.placed()
}

// placed follows a change of the window (§5.2.3.2.3): highestStatus
// moves past what has arrived, t-Reassembly stops once the floor reaches
// its trigger and starts while an SN below highest is missing.
func (r *AMRx) placed() {
	r.advanceStatus(r.floor)
	if r.floor >= r.trigger {
		r.tReassembly.Stop()
	}
	r.armReassembly(r.floor)
	r.answerPoll()
}

// onReassemblyExpiry NACKs the gaps t-Reassembly waited out
// (§5.2.3.2.4), and restarts it for any SN missing above them.
func (r *AMRx) onReassemblyExpiry() {
	r.advanceStatus(r.trigger)
	r.armReassembly(r.highestStatus)
	if r.pollUntil <= r.highestStatus {
		r.pollUntil = 0 // this status answers it
	}
	r.maybeSendStatus()
}

// advanceStatus moves highestStatus to the first SN from at least from
// on that has neither arrived whole nor been abandoned.
func (r *AMRx) advanceStatus(from uint32) {
	r.highestStatus = max(r.highestStatus, from)
	for r.highestStatus < r.highest {
		_, got := r.held[r.highestStatus]
		_, gone := r.abandoned[r.highestStatus]
		if !got && !gone {
			return
		}
		r.highestStatus++
	}
}

// armReassembly starts t-Reassembly, unless it runs, when bytes are
// missing from SN from on below highest.
func (r *AMRx) armReassembly(from uint32) {
	if from < r.highest && !r.tReassembly.Running() {
		r.trigger = r.highest
		r.tReassembly.Start(DefaultTReassembly)
	}
}

// answerPoll sends the status a poll waits for once highestStatus has
// passed it.
func (r *AMRx) answerPoll() {
	if r.pollUntil != 0 && r.highestStatus >= r.pollUntil {
		r.pollUntil = 0
		r.maybeSendStatus()
	}
}

// assemble returns the PDU p completes: p itself, or, for a piece of a
// re-segmented retransmission, the whole PDU rebuilt from its pieces
// once they cover every byte (a byte sent twice kept once); nil until
// then.
func (r *AMRx) assemble(p *PDU) *PDU {
	if p.Whole == 0 {
		delete(r.pieces, p.SN)
		return p
	}
	ps := r.pieces[p.SN]
	i, _ := slices.BinarySearchFunc(ps, p.SO, func(q *PDU, so int) int { return q.SO - so })
	ps = slices.Insert(ps, i, p)
	r.pieces[p.SN] = ps
	if covered(ps) < p.Whole {
		return nil
	}
	delete(r.pieces, p.SN)
	whole, at := &PDU{SN: p.SN}, 0
	for _, q := range ps {
		skip := at - q.SO // bytes of q already taken from earlier pieces
		for _, seg := range q.Segments {
			if skip >= seg.Len {
				skip -= seg.Len
				continue
			}
			seg.Offset, seg.Len, skip = seg.Offset+skip, seg.Len-skip, 0
			whole.Segments = append(whole.Segments, seg)
		}
		at = max(at, q.SO+q.PayloadBytes())
	}
	return whole
}

// covered returns how many bytes from the start of a PDU its pieces, in
// SO order, hold without a gap.
func covered(ps []*PDU) (at int) {
	for _, q := range ps {
		if q.SO > at {
			break
		}
		at = max(at, q.SO+q.PayloadBytes())
	}
	return at
}

// Abandon tells the receiver that its transmitter gave up SN sn, which
// carried pdu, at maxRetx. When the receiver's floor reaches sn it skips
// it and discards exactly the SDUs pdu carried. An SN already received
// is no loss and is left alone.
func (r *AMRx) Abandon(sn uint32, pdu *PDU) {
	if _, ok := r.held[sn]; ok || sn < r.floor {
		return
	}
	r.abandoned[sn] = pdu
	r.highest = max(r.highest, sn+1)
	r.drain()
	r.placed()
}

// drain processes held PDUs in SN order, skipping the abandoned ones.
func (r *AMRx) drain() {
	for r.floor < r.highest {
		if pdu, ok := r.held[r.floor]; ok {
			delete(r.held, r.floor)
			r.floor++
			r.fold(pdu, r.eng.Now(), r.Deliver)
			continue
		}
		if pdu, ok := r.abandoned[r.floor]; ok {
			delete(r.abandoned, r.floor)
			delete(r.pieces, r.floor)
			r.floor++
			r.lose(pdu)
			continue
		}
		break
	}
}

func (r *AMRx) buildStatus() *StatusPDU {
	st := &StatusPDU{AckSN: r.highestStatus}
	for sn := r.floor; sn < r.highestStatus; sn++ {
		_, got := r.held[sn]
		_, gone := r.abandoned[sn]
		if !got && !gone {
			st.Nacks = append(st.Nacks, Nack{SN: sn, SO: covered(r.pieces[sn])})
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

// Skipped is UMRx's gap counter: an AM receiver skips only the SNs its
// transmitter abandoned, which AMTx.Abandoned counts.
func (r *AMRx) Skipped() uint64 { return 0 }

// Close cancels the entity's timers (teardown; see AMTx.Close).
func (r *AMRx) Close() {
	r.prohibit.Stop()
	r.tReassembly.Stop()
}

// Audit verifies the receiver's structural invariants (see
// AMTx.Audit for the determinism note on the fold style).
func (r *AMRx) Audit() error {
	if r.floor > r.highest {
		return fmt.Errorf("rlc: AM rx floor %d beyond highest %d", r.floor, r.highest)
	}
	if window := int64(r.highest) - int64(r.floor); int64(len(r.held)+len(r.abandoned)) > window {
		return fmt.Errorf("rlc: AM rx holds %d PDUs in a window of %d", len(r.held)+len(r.abandoned), window)
	}
	bad := int64(-1)
	outside := func(sn uint32) {
		if (sn < r.floor || sn >= r.highest) && (bad < 0 || int64(sn) < bad) {
			bad = int64(sn)
		}
	}
	// Order-free: min fold; commutative, no visit-order effect
	for _, m := range []map[uint32]*PDU{r.held, r.abandoned} {
		for sn := range m {
			outside(sn)
		}
	}
	// Order-free: min fold; commutative, no visit-order effect
	for sn := range r.pieces {
		outside(sn)
	}
	if bad >= 0 {
		return fmt.Errorf("rlc: held PDU SN %d outside window [%d,%d)", bad, r.floor, r.highest)
	}
	return nil
}
