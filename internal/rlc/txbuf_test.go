package rlc

import (
	"testing"
	"testing/quick"

	"outran/internal/ip"
	"outran/internal/sim"
)

var nextID uint64

func mkSDU(size, prio int, flow uint16) *SDU {
	nextID++
	return &SDU{
		ID:       nextID,
		Size:     size,
		Priority: prio,
		Flow:     ip.FiveTuple{SrcPort: flow, Proto: ip.ProtoTCP},
		FlowSize: -1,
		PDCPSN:   1, // pre-assigned unless a test wants delayed SN
	}
}

func TestEnqueueTailDrop(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 3})
	for i := 0; i < 3; i++ {
		if !b.enqueue(mkSDU(100, 0, 1)) {
			t.Fatal("early drop")
		}
	}
	if b.enqueue(mkSDU(100, 0, 1)) {
		t.Fatal("over-capacity enqueue accepted")
	}
	if b.count != 3 {
		t.Fatalf("count %d after a drop, want 3", b.count)
	}
}

func TestFIFOOrder(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 10})
	first := mkSDU(100, 0, 1)
	second := mkSDU(100, 0, 2)
	b.enqueue(first)
	b.enqueue(second)
	pdu := b.buildPDU(500, 0, nil)
	if pdu == nil || len(pdu.Segments) != 2 {
		t.Fatalf("pdu %+v", pdu)
	}
	if pdu.Segments[0].SDU != first || pdu.Segments[1].SDU != second {
		t.Fatal("FIFO violated")
	}
}

func TestStrictPriorityDequeue(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 10})
	low := mkSDU(100, 3, 1)
	high := mkSDU(100, 0, 2)
	b.enqueue(low)
	b.enqueue(high)
	pdu := b.buildPDU(150, 0, nil)
	if pdu.Segments[0].SDU != high {
		t.Fatal("high priority SDU not served first")
	}
}

func TestPriorityClamping(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 10})
	s := mkSDU(100, 99, 1)
	b.enqueue(s)
	if s.Priority != 3 {
		t.Fatalf("priority %d not clamped to 3", s.Priority)
	}
	s2 := mkSDU(100, -1, 1)
	b.enqueue(s2)
	if s2.Priority != 0 {
		t.Fatal("negative priority not clamped")
	}
}

func TestSegmentationBudget(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 10})
	b.enqueue(mkSDU(1000, 0, 1))
	pdu := b.buildPDU(300, 0, nil)
	if pdu == nil || len(pdu.Segments) != 1 {
		t.Fatalf("pdu %+v", pdu)
	}
	seg := pdu.Segments[0]
	if seg.Last || seg.Offset != 0 {
		t.Fatalf("segment %+v", seg)
	}
	if pdu.Bytes > 300 {
		t.Fatalf("PDU %d bytes exceeds 300-byte grant", pdu.Bytes)
	}
	// Continuation.
	pdu2 := b.buildPDU(2000, 1, nil)
	seg2 := pdu2.Segments[0]
	if seg2.Offset != seg.Len || !seg2.Last {
		t.Fatalf("continuation %+v", seg2)
	}
	if seg.Len+seg2.Len != 1000 {
		t.Fatalf("segments cover %d bytes", seg.Len+seg2.Len)
	}
}

func TestTinyGrantRejected(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 10})
	b.enqueue(mkSDU(1000, 0, 1))
	if pdu := b.buildPDU(MinGrant-1, 0, nil); pdu != nil {
		t.Fatal("sub-minimum grant produced a PDU")
	}
	if pdu := b.buildPDU(0, 0, nil); pdu != nil {
		t.Fatal("zero grant produced a PDU")
	}
}

func TestEmptyBufferNoPDU(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 10})
	if b.buildPDU(1000, 0, nil) != nil {
		t.Fatal("PDU from empty buffer")
	}
}

func TestSegmentPromotionWireOrder(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 10, SegmentPromotion: true})
	long := mkSDU(1000, 3, 1)
	b.enqueue(long)
	pdu := b.buildPDU(300, 0, nil)
	if pdu == nil || pdu.Segments[0].SDU != long {
		t.Fatal("setup failed")
	}
	// A new high-priority SDU arrives; promotion must still continue
	// the segmented SDU first.
	short := mkSDU(100, 0, 2)
	b.enqueue(short)
	pdu2 := b.buildPDU(2000, 1, nil)
	if pdu2.Segments[0].SDU != long || !pdu2.Segments[0].Last {
		t.Fatal("promoted segment not continued first")
	}
	if pdu2.Segments[1].SDU != short {
		t.Fatal("short SDU should follow the promoted remainder")
	}
}

func TestNoPromotionLeavesRemainderInPlace(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 10, SegmentPromotion: false})
	long := mkSDU(1000, 3, 1)
	b.enqueue(long)
	b.buildPDU(300, 0, nil)
	short := mkSDU(100, 0, 2)
	b.enqueue(short)
	pdu := b.buildPDU(2000, 1, nil)
	if pdu.Segments[0].SDU != short {
		t.Fatal("without promotion the P1 SDU should pre-empt the remainder")
	}
	if pdu.Segments[1].SDU != long {
		t.Fatal("remainder lost")
	}
}

func TestPromotionDoesNotRaiseReportedPriority(t *testing.T) {
	// Regression for the inter-user inversion: a promoted long-flow
	// segment must not make the user look like a P1 user in the BSR.
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 10, SegmentPromotion: true})
	long := mkSDU(1000, 3, 1)
	b.enqueue(long)
	b.buildPDU(300, 0, nil) // leaves a promoted remainder
	st := b.status(0)
	if st.PerPriority[0] != 0 {
		t.Fatalf("promoted segment reported as P1 bytes: %v", st.PerPriority)
	}
	if st.PerPriority[3] != long.Remaining() {
		t.Fatalf("remainder not reported under original priority: %v", st.PerPriority)
	}
	if st.TopPriority() != 3 {
		t.Fatalf("TopPriority %d, want 3", st.TopPriority())
	}
}

func TestStatusAccounting(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 10})
	b.enqueue(mkSDU(100, 0, 1))
	b.enqueue(mkSDU(200, 2, 2))
	st := b.status(0)
	if st.TotalBytes != 300 {
		t.Fatalf("total %d", st.TotalBytes)
	}
	if st.PerPriority[0] != 100 || st.PerPriority[2] != 200 {
		t.Fatalf("per-priority %v", st.PerPriority)
	}
	if st.TopPriority() != 0 {
		t.Fatalf("top priority %d", st.TopPriority())
	}
}

// TestOracleMinRemaining checks the clairvoyant fold, and that a buffer
// whose scheduler never reads it reports unknown without folding.
func TestOracleMinRemaining(t *testing.T) {
	for _, tc := range []struct {
		oracle bool
		want   int64
	}{{true, 8000}, {false, -1}} {
		b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 20, OracleRemaining: tc.oracle})
		s1 := mkSDU(1000, 0, 1)
		s1.FlowSize = 50000
		s2 := mkSDU(1000, 0, 2)
		s2.FlowSize = 8000
		b.enqueue(s1)
		b.enqueue(s2)
		st := b.status(0)
		if st.OracleMinRemaining != tc.want {
			t.Fatalf("oracle %v: remaining %d, want %d", tc.oracle, st.OracleMinRemaining, tc.want)
		}
		// Serving flow 1 reduces its remaining.
		b.buildPDU(1002, 0, nil) // drains s1 fully
		st = b.status(0)
		if st.OracleMinRemaining != tc.want {
			t.Fatalf("oracle %v: remaining %d after drain, want %d", tc.oracle, st.OracleMinRemaining, tc.want)
		}
	}
}

// TestOracleMinRemainingEmptiedBuffer covers the idle-UE shortcut in
// status: a drained buffer whose unfinished flows linger in the flows
// map reports -1 without folding them, and once refilled it reports the
// minimum the fold always gave, the lingering dequeued totals included.
func TestOracleMinRemainingEmptiedBuffer(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 20, OracleRemaining: true})
	s1 := mkSDU(1000, 0, 1)
	s1.FlowSize = 50000
	s2 := mkSDU(1000, 0, 2)
	s2.FlowSize = 8000
	b.enqueue(s1)
	b.enqueue(s2)
	for !b.empty() {
		if b.buildPDU(1500, 0, nil) == nil {
			t.Fatal("buffer did not drain")
		}
	}
	if len(b.flows) != 2 {
		t.Fatalf("%d flow entries linger, want both unfinished flows", len(b.flows))
	}
	if st := b.status(0); st.TotalBytes != 0 || st.OracleMinRemaining != -1 {
		t.Fatalf("emptied buffer reports %d bytes, oracle remaining %d; want 0 and -1",
			st.TotalBytes, st.OracleMinRemaining)
	}
	s3 := mkSDU(1000, 0, 1)
	s3.FlowSize = 50000
	b.enqueue(s3)
	if st := b.status(0); st.OracleMinRemaining != 49000 {
		t.Fatalf("refilled with flow 1: oracle remaining %d, want 49000", st.OracleMinRemaining)
	}
	s4 := mkSDU(1000, 0, 2)
	s4.FlowSize = 8000
	b.enqueue(s4)
	if st := b.status(0); st.OracleMinRemaining != 7000 {
		t.Fatalf("refilled with flow 2: oracle remaining %d, want 7000", st.OracleMinRemaining)
	}
}

func TestQoSTracking(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 20})
	q := mkSDU(500, 0, 1)
	q.QoS = true
	q.DelayBudget = 50 * sim.Millisecond
	q.Arrival = 7 * sim.Millisecond
	b.enqueue(mkSDU(500, 0, 2))
	b.enqueue(q)
	st := b.status(10 * sim.Millisecond)
	if st.QoSBytes != 500 {
		t.Fatalf("QoS bytes %d", st.QoSBytes)
	}
	if st.QoSHOLArrival != 7*sim.Millisecond || st.QoSDelayBudget != 50*sim.Millisecond {
		t.Fatalf("QoS HOL %v budget %v", st.QoSHOLArrival, st.QoSDelayBudget)
	}
}

func TestDelayedSNAssignment(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 10})
	s := mkSDU(100, 0, 1)
	s.PDCPSN = SNUnassigned
	b.enqueue(s)
	assigned := 0
	b.buildPDU(200, 0, func(x *SDU) {
		assigned++
		x.PDCPSN = 42
	})
	if assigned != 1 || s.PDCPSN != 42 {
		t.Fatalf("assigned=%d sn=%d", assigned, s.PDCPSN)
	}
}

// Property: bytes accounting stays consistent across arbitrary
// enqueue/pull interleavings — total bytes equals the sum of SDU
// remainders and per-priority counts are non-negative.
func TestTxBufAccountingProperty(t *testing.T) {
	prop := func(ops []uint16, promo bool) bool {
		b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 64, SegmentPromotion: promo})
		var live []*SDU
		for _, op := range ops {
			if op%3 != 0 {
				s := mkSDU(int(op%1900)+10, int(op%4), uint16(op%5))
				if b.enqueue(s) {
					live = append(live, s)
				}
			} else {
				b.buildPDU(int(op%700)+MinGrant, 0, nil)
			}
			sum := 0
			for _, s := range live {
				if s.evicted {
					continue
				}
				sum += s.Remaining()
			}
			if sum != b.bytes {
				return false
			}
			perSum := 0
			for _, v := range b.prioBytes {
				if v < 0 {
					return false
				}
				perSum += v
			}
			if perSum != b.bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPushOutPriorityInversionAvoided(t *testing.T) {
	// Full buffer of low-priority bytes must not tail-drop a
	// high-priority arrival: the newest low-priority SDU is evicted.
	b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 3})
	l1 := mkSDU(100, 3, 1)
	l2 := mkSDU(100, 3, 1)
	l3 := mkSDU(100, 3, 1)
	b.enqueue(l1)
	b.enqueue(l2)
	b.enqueue(l3)
	hi := mkSDU(100, 0, 2)
	if !b.enqueue(hi) {
		t.Fatal("high-priority arrival dropped despite evictable victims")
	}
	if b.evictionCount() != 1 {
		t.Fatalf("evictions %d", b.evictionCount())
	}
	if !l3.evicted || l1.evicted || l2.evicted {
		t.Fatal("wrong victim: the newest low-priority SDU should go")
	}
	if b.count != 3 || b.bytes != 300 {
		t.Fatalf("accounting off: count=%d bytes=%d", b.count, b.bytes)
	}
	// Equal or higher-priority arrivals still tail-drop.
	lo := mkSDU(100, 3, 3)
	if b.enqueue(lo) {
		t.Fatal("low-priority arrival must not evict anything")
	}
	if b.evictionCount() != 1 || b.count != 3 || b.bytes != 300 {
		t.Fatalf("a tail drop changed the buffer: evictions=%d count=%d bytes=%d", b.evictionCount(), b.count, b.bytes)
	}
}

func TestPushOutSkipsInServiceSDU(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 2, LimitSDUs: 1, SegmentPromotion: false})
	long := mkSDU(1000, 1, 1)
	b.enqueue(long)
	b.buildPDU(300, 0, nil) // long is now partially sent
	hi := mkSDU(100, 0, 2)
	if b.enqueue(hi) {
		t.Fatal("in-service SDU was evicted")
	}
}

func TestStatusFlowIterationDeterministic(t *testing.T) {
	// status() walks the b.flows map to compute OracleMinRemaining.
	// Map iteration order varies between otherwise identical map
	// instances, so replaying the exact same concurrent-arrival
	// workload against fresh buffers must yield identical status
	// sequences — the min fold must not leak visit order.
	type step struct {
		total, min int64
		qos        int
	}
	replay := func() []step {
		b := newTxBuf(TxBufConfig{Queues: 4, LimitSDUs: 512, OracleRemaining: true})
		id := uint64(0)
		mk := func(size int, prio int, flow uint16, flowSize int64) *SDU {
			id++
			return &SDU{
				ID: id, Size: size, Priority: prio,
				Flow:     ip.FiveTuple{SrcPort: flow, DstPort: 1000 + flow, Proto: ip.ProtoTCP},
				FlowSize: flowSize, PDCPSN: 1,
			}
		}
		// 32 flows arriving interleaved: each round delivers one SDU
		// for every flow, modelling concurrent arrivals.
		var trace []step
		for round := 0; round < 8; round++ {
			for f := uint16(0); f < 32; f++ {
				fs := int64(3000 + 500*int64(f))
				b.enqueue(mk(400, int(f)%4, f, fs))
			}
			st := b.status(sim.Time(round))
			trace = append(trace, step{int64(st.TotalBytes), st.OracleMinRemaining, st.QoSBytes})
			// Drain a PDU between arrival bursts so flows empty and the
			// flow table churns (entries deleted mid-workload).
			if pdu := b.buildPDU(1500, uint32(round), nil); pdu == nil {
				t.Fatal("expected a PDU while backlogged")
			}
			st = b.status(sim.Time(round))
			trace = append(trace, step{int64(st.TotalBytes), st.OracleMinRemaining, st.QoSBytes})
		}
		// Full drain, sampling status throughout.
		for sn := uint32(100); !b.empty(); sn++ {
			if pdu := b.buildPDU(4000, sn, nil); pdu == nil {
				break
			}
			st := b.status(0)
			trace = append(trace, step{int64(st.TotalBytes), st.OracleMinRemaining, st.QoSBytes})
		}
		return trace
	}
	first := replay()
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
	for trial := 1; trial < 8; trial++ {
		again := replay()
		if len(again) != len(first) {
			t.Fatalf("trial %d: trace length %d, want %d", trial, len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("trial %d: status diverges at step %d: %+v vs %+v", trial, i, first[i], again[i])
			}
		}
	}
}

func TestOracleMinRemainingInsertionOrderInvariant(t *testing.T) {
	// The min over per-flow remaining bytes is a commutative fold (the
	// order-free map walk in status()): any
	// arrival interleaving of the same flow set must report the same
	// OracleMinRemaining.
	build := func(order []uint16) *txBuf {
		b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 128, OracleRemaining: true})
		id := uint64(0)
		for _, f := range order {
			id++
			b.enqueue(&SDU{
				ID: id, Size: 500,
				Flow:     ip.FiveTuple{SrcPort: f, Proto: ip.ProtoTCP},
				FlowSize: int64(2000 + 100*int64(f)),
				PDCPSN:   1,
			})
		}
		return b
	}
	fwd := []uint16{1, 2, 3, 4, 5, 6, 7, 8}
	rev := []uint16{8, 7, 6, 5, 4, 3, 2, 1}
	mixed := []uint16{5, 2, 8, 1, 7, 4, 6, 3}
	want := build(fwd).status(0).OracleMinRemaining
	if want <= 0 {
		t.Fatalf("oracle remaining %d, want positive", want)
	}
	for i, order := range [][]uint16{rev, mixed} {
		if got := build(order).status(0).OracleMinRemaining; got != want {
			t.Fatalf("order %d: oracle remaining %d, want %d", i, got, want)
		}
	}
}

// TestBuildPDUSplitsAtSegmentCap is the regression test for segments
// the wire header cannot represent: a grant larger than 65535 bytes
// must split the SDU at the 16-bit boundary and leave the remainder
// queued, and every emitted segment must wire-encode cleanly.
func TestBuildPDUSplitsAtSegmentCap(t *testing.T) {
	b := newTxBuf(TxBufConfig{Queues: 1})
	sduSize := MaxSegmentLen + 1000
	b.enqueue(mkSDU(sduSize, 0, 1))
	pdu := b.buildPDU(sduSize+64, 0, nil)
	if pdu == nil {
		t.Fatal("no PDU")
	}
	if len(pdu.Segments) != 1 || pdu.Segments[0].Len != MaxSegmentLen {
		t.Fatalf("segment len %d, want cap %d", pdu.Segments[0].Len, MaxSegmentLen)
	}
	if pdu.Segments[0].Last {
		t.Fatal("capped segment marked Last")
	}
	if _, err := pdu.WireHeader(); err != nil {
		t.Fatalf("capped segment does not encode: %v", err)
	}
	rest := b.buildPDU(4096, 1, nil)
	if rest == nil || rest.Segments[0].Offset != MaxSegmentLen {
		t.Fatalf("remainder not continued from %d: %+v", MaxSegmentLen, rest)
	}
	if b.bytes != sduSize-MaxSegmentLen-rest.Segments[0].Len {
		t.Fatalf("byte accounting off: %d left", b.bytes)
	}
}
