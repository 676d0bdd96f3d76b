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
	sincePoll     int
	pollSN        uint32
	pollOut       bool
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

// piece returns the retransmission of p's payload from byte so on that
// fits a grant-byte transmission: a copy of p when all of it fits, else an
// AMD PDU segment ending where the grant does; nil when no useful part
// of it fits.
func piece(p *PDU, so, grant int) *PDU {
	if so == 0 && p.Bytes <= grant {
		re := *p
		re.Retx = true
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
	re.Poll = p.Poll && so+payload == re.Whole
	return re
}

// OnStatus processes a status report from the peer receiver.
func (t *AMTx) OnStatus(st *StatusPDU) {
	if t.pollOut && st.AckSN > t.pollSN {
		t.pollOut = false
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

func (t *AMTx) onPollRetransmit() {
	if !t.pollOut {
		return
	}
	t.queueRetx(t.pollSN, 0) // re-request status by retransmitting the polled PDU
	t.tPollRetx.Start(DefaultTPollRetransmit)
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
// SDUs delivered — in SN order (held PDUs wait for retransmissions of
// the gap), with loss detection and status generation throttled by
// t-StatusProhibit. It keeps no clock of its own for giving up: it
// skips an SN only once its transmitter has abandoned it (Abandon).
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
	floor     uint32            // next SN to process
	highest   uint32            // highest SN received or abandoned + 1
	prohibit  *sim.Timer
	gapTimer  *sim.Timer // re-sends status while a gap persists
	pending   bool       // status wanted while prohibited
}

// gapStatusPeriod is how often the receiver re-reports a persistent
// gap (the t-Reassembly-driven status retrigger of 38.322).
const gapStatusPeriod = 40 * sim.Millisecond

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
	rx.gapTimer = sim.NewTimer(eng, rx.onGapTimer)
	return rx
}

func (r *AMRx) onGapTimer() {
	if r.floor < r.highest {
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
		if pdu.SN >= r.highest {
			r.highest = pdu.SN + 1
		}
		if whole := r.assemble(pdu); whole != nil {
			delete(r.abandoned, pdu.SN) // a copy got through after all
			r.held[pdu.SN] = whole
			r.drain()
		}
	}
	if gap := r.floor < r.highest; pdu.Poll || gap {
		r.maybeSendStatus()
		if gap && !r.gapTimer.Running() {
			r.gapTimer.Start(gapStatusPeriod)
		}
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
		whole.Poll = whole.Poll || q.Poll
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
	if sn >= r.highest {
		r.highest = sn + 1
	}
	r.drain()
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
	st := &StatusPDU{AckSN: r.highest}
	for sn := r.floor; sn < r.highest; sn++ {
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
	r.gapTimer.Stop()
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
