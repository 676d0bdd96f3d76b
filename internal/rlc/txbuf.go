package rlc

import (
	"fmt"

	"outran/internal/ip"
	"outran/internal/mac"
	"outran/internal/sim"
)

// TxBufConfig configures a downlink transmission buffer.
type TxBufConfig struct {
	// Queues is the number of priority queues: 1 gives the legacy
	// FIFO, K>1 gives OutRAN's per-UE MLFQ.
	Queues int
	// LimitSDUs caps the buffered SDU count (srsENB default: 128).
	// Arrivals beyond the cap are dropped (tail drop).
	LimitSDUs int
	// SegmentPromotion moves a partially sent SDU's remainder to the
	// head of the top priority queue (§4.4).
	SegmentPromotion bool
	// OracleRemaining makes status report OracleMinRemaining, a fold
	// over every queued flow that only the clairvoyant SRJF baseline
	// reads; without it the field stays -1 (unknown).
	OracleRemaining bool
}

// DefaultLimitSDUs is the srsENB default UM buffer capacity.
const DefaultLimitSDUs = 128

type flowAgg struct {
	queuedSDUs  int
	queuedBytes int
	dequeued    int64
	flowSize    int64
}

// txBuf is the shared tx-queue machinery of the UM and AM entities:
// priority queues, eviction accounting, per-flow aggregates for the BSR
// and the oracle baselines, and PDU building with segmentation.
type txBuf struct {
	cfg       TxBufConfig
	queues    []deque
	count     int
	bytes     int
	prioBytes []int
	flows     map[ip.FiveTuple]*flowAgg
	evictions int

	qosBytes int
	qosList  deque // QoS SDUs in arrival order (HOL tracking)

	// prioScratch backs BufferStatus.PerPriority across status calls so
	// the per-TTI BSR path does not allocate; see the status ownership
	// note.
	prioScratch []int
}

func newTxBuf(cfg TxBufConfig) *txBuf {
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.LimitSDUs <= 0 {
		cfg.LimitSDUs = DefaultLimitSDUs
	}
	return &txBuf{
		cfg:       cfg,
		queues:    make([]deque, cfg.Queues),
		prioBytes: make([]int, cfg.Queues),
		flows:     make(map[ip.FiveTuple]*flowAgg),
	}
}

// enqueue adds an SDU, returning false when dropped; counting drops is
// the caller's. A full buffer
// prefers pushing out the newest SDU of a lower-priority queue over
// dropping a higher-priority arrival: with MLFQ, plain tail drop
// inverts priorities — the buffer fills with demoted long-flow bytes
// and the short flows the scheduler exists to protect get dropped at
// the door.
func (b *txBuf) enqueue(s *SDU) bool {
	if b.count >= b.cfg.LimitSDUs {
		if !b.pushOut(s.Priority) {
			return false
		}
	}
	q := s.Priority
	if q < 0 {
		q = 0
	}
	if q >= len(b.queues) {
		q = len(b.queues) - 1
	}
	s.Priority = q
	s.reportPrio = q
	b.queues[q].pushBack(s)
	b.count++
	b.bytes += s.Size
	b.prioBytes[q] += s.Size
	fa := b.flows[s.Flow]
	if fa == nil {
		fa = &flowAgg{flowSize: s.FlowSize}
		b.flows[s.Flow] = fa
	}
	fa.queuedSDUs++
	fa.queuedBytes += s.Size
	if s.FlowSize >= 0 {
		fa.flowSize = s.FlowSize
	}
	if s.QoS {
		b.qosBytes += s.Size
		b.qosList.pushBack(s)
	}
	return true
}

// pushOut evicts the newest SDU from the lowest-priority non-empty
// queue strictly below arrivingPrio (higher index = lower priority).
// In-service (partially sent) SDUs are never evicted. Returns whether
// a slot was freed.
func (b *txBuf) pushOut(arrivingPrio int) bool {
	for q := len(b.queues) - 1; q > arrivingPrio; q-- {
		victim := b.queues[q].back()
		if victim == nil || victim.PartiallySent() {
			continue
		}
		b.queues[q].popBack()
		rem := victim.Remaining()
		b.count--
		b.bytes -= rem
		b.prioBytes[victim.reportPrio] -= rem
		if victim.QoS {
			b.qosBytes -= rem
		}
		if fa := b.flows[victim.Flow]; fa != nil {
			fa.queuedSDUs--
			fa.queuedBytes -= rem
		}
		victim.evicted = true
		b.evictions++
		return true
	}
	return false
}

// headQueue returns the index of the highest-priority non-empty queue
// or -1.
func (b *txBuf) headQueue() int {
	for i := range b.queues {
		if b.queues[i].len() > 0 {
			return i
		}
	}
	return -1
}

func (b *txBuf) empty() bool { return b.count == 0 }

// buildPDU pulls up to grant bytes into one PDU, in strict priority
// order, segmenting the last SDU if needed. assignSN is invoked for
// SDUs whose PDCP SN is still unassigned the moment their first byte
// is scheduled (delayed numbering). Returns nil when the grant is too
// small or the buffer empty.
func (b *txBuf) buildPDU(grant int, sn uint32, assignSN func(*SDU)) *PDU {
	if grant < MinGrant || b.empty() {
		return nil
	}
	pdu := &PDU{SN: sn}
	budget := grant - pduFixedHeader
	for budget >= 1 {
		qi := b.headQueue()
		if qi < 0 {
			break
		}
		segHeader := 0
		if len(pdu.Segments) > 0 {
			segHeader = perExtraSegment
		}
		avail := budget - segHeader
		if avail < 1 {
			break
		}
		s := b.queues[qi].front()
		need := s.Remaining()
		take := need
		if take > avail {
			take = avail
		}
		if take > MaxSegmentLen {
			// The wire header's 16-bit length indicator cannot carry a
			// longer segment; split here and continue in the next PDU
			// rather than truncate on the air.
			take = MaxSegmentLen
		}
		if take < minUsefulPayload && take < need {
			// Don't open a segment for a sliver.
			break
		}
		if s.PDCPSN == SNUnassigned && assignSN != nil {
			assignSN(s)
		}
		seg := Segment{SDU: s, Offset: s.sentOffset, Len: take, Last: take == need}
		pdu.Segments = append(pdu.Segments, seg)
		s.sentOffset += take
		budget -= take + segHeader
		b.bytes -= take
		b.prioBytes[s.reportPrio] -= take
		if s.QoS {
			b.qosBytes -= take
		}
		if fa := b.flows[s.Flow]; fa != nil {
			fa.queuedBytes -= take
			fa.dequeued += int64(take)
		}
		if seg.Last {
			b.queues[qi].popFront()
			b.count--
			b.finishSDUFlow(s)
		} else {
			// Partially sent: the grant is exhausted. Optionally
			// promote the remainder so it is continued first. The
			// promotion changes only the wire order; reportPrio keeps
			// the BSR accounting under the original priority.
			if b.cfg.SegmentPromotion && qi != 0 {
				b.queues[qi].popFront()
				b.queues[0].pushFront(s)
				s.Priority = 0
			}
			break
		}
	}
	if len(pdu.Segments) == 0 {
		return nil
	}
	pdu.Bytes = headerBytes(len(pdu.Segments)) + pdu.PayloadBytes()
	return pdu
}

func (b *txBuf) finishSDUFlow(s *SDU) {
	fa := b.flows[s.Flow]
	if fa == nil {
		return
	}
	fa.queuedSDUs--
	if fa.queuedSDUs <= 0 && fa.queuedBytes <= 0 {
		// Keep dequeued totals for oracle remaining only while the
		// flow has queued data; an empty flow entry can go.
		if fa.flowSize >= 0 && fa.dequeued >= fa.flowSize {
			delete(b.flows, s.Flow)
		}
	}
}

// status summarises the buffer for the MAC BSR.
//
// Ownership: the returned status's PerPriority slice aliases scratch
// owned by the buffer and is valid only until the next status call —
// exactly the per-TTI lifetime of the BSR it models. Callers that keep
// it longer must copy.
//
//outran:allocfree
func (b *txBuf) status(now sim.Time) mac.BufferStatus {
	st := mac.BufferStatus{
		TotalBytes:         b.bytes,
		OracleMinRemaining: -1,
	}
	if len(b.queues) > 1 {
		if cap(b.prioScratch) < len(b.prioBytes) {
			// Not a steady-state allocation: capacity-guarded scratch growth; priority count is fixed per config
			b.prioScratch = make([]int, len(b.prioBytes))
		}
		st.PerPriority = b.prioScratch[:len(b.prioBytes)]
		copy(st.PerPriority, b.prioBytes)
	}
	if qi := b.headQueue(); qi >= 0 {
		st.HOLArrival = b.queues[qi].front().Arrival
	}
	// Drop fully sent (or evicted) QoS SDUs off the HOL tracker.
	for b.qosList.len() > 0 && (b.qosList.front().Remaining() == 0 || b.qosList.front().evicted) {
		b.qosList.popFront()
	}
	st.QoSBytes = b.qosBytes
	if hol := b.qosList.front(); hol != nil {
		st.QoSHOLArrival = hol.Arrival
		st.QoSDelayBudget = hol.DelayBudget
	}
	if !b.cfg.OracleRemaining || b.bytes == 0 {
		// bytes is the sum of every flow's queuedBytes, so no entry that
		// lingers in flows has queued data and the fold below stays -1.
		return st
	}
	// Order-free: min fold over per-flow remaining; commutative, order cannot matter
	for _, fa := range b.flows {
		if fa.queuedBytes <= 0 || fa.flowSize < 0 {
			continue
		}
		rem := fa.flowSize - fa.dequeued
		if rem <= 0 {
			rem = int64(fa.queuedBytes)
		}
		if st.OracleMinRemaining < 0 || rem < st.OracleMinRemaining {
			st.OracleMinRemaining = rem
		}
	}
	_ = now
	return st
}

// evictionCount returns how many queued SDUs were pushed out by
// higher-priority arrivals.
func (b *txBuf) evictionCount() int { return b.evictions }

// audit checks that the buffer holds no more SDUs than its limit.
func (b *txBuf) audit() error {
	if b.count > b.cfg.LimitSDUs {
		return fmt.Errorf("rlc: tx buffer holds %d SDUs, limit %d", b.count, b.cfg.LimitSDUs)
	}
	return nil
}
