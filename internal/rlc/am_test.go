package rlc

import (
	"slices"
	"testing"

	"outran/internal/sim"
)

// amPair wires an AMTx to an AMRx with a lossy forward channel.
type amPair struct {
	eng       *sim.Engine
	tx        *AMTx
	rx        *AMRx
	delivered []uint64
	lossNext  map[uint32]bool // SNs to drop on first transmission
}

func newAMPair(eng *sim.Engine) *amPair {
	p := &amPair{eng: eng, lossNext: make(map[uint32]bool)}
	p.tx = NewAMTx(eng, TxBufConfig{Queues: 1, LimitSDUs: 100})
	p.rx = NewAMRx(eng,
		func(s *SDU) { p.delivered = append(p.delivered, s.ID) },
		func(st *StatusPDU) { eng.After(sim.Millisecond, func() { p.tx.OnStatus(st) }) },
	)
	p.tx.OnDeliveryFail = p.rx.Abandon // as the cell wires them
	return p
}

// pump transfers PDUs each millisecond with the configured losses.
func (p *amPair) pump(grant int, rounds int) {
	for i := 0; i < rounds; i++ {
		p.eng.After(sim.Time(i)*sim.Millisecond, func() {
			for _, pdu := range p.tx.PullAppend(nil, grant) {
				pdu := pdu
				if !pdu.Retx && p.lossNext[pdu.SN] {
					delete(p.lossNext, pdu.SN)
					continue // dropped on the air
				}
				p.eng.After(sim.Millisecond, func() { p.rx.Receive(pdu) })
			}
		})
	}
}

func TestAMLosslessDelivery(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	var want []uint64
	for i := 0; i < 10; i++ {
		s := mkSDU(500, 0, 1)
		want = append(want, s.ID)
		p.tx.Enqueue(s)
	}
	p.pump(600, 30)
	eng.RunUntil(200 * sim.Millisecond)
	if len(p.delivered) != 10 {
		t.Fatalf("delivered %d/10", len(p.delivered))
	}
	for i, id := range p.delivered {
		if id != want[i] {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestAMRetransmissionRecoversLoss(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	for i := 0; i < 20; i++ {
		p.tx.Enqueue(mkSDU(500, 0, 1))
	}
	p.lossNext[2] = true
	p.lossNext[5] = true
	p.pump(600, 120)
	eng.RunUntil(2 * sim.Second)
	if len(p.delivered) != 20 {
		t.Fatalf("delivered %d/20 after losses; retx bytes=%d abandoned=%d",
			len(p.delivered), p.tx.RetxBytes(), p.tx.Abandoned())
	}
	if p.tx.RetxBytes() == 0 {
		t.Fatal("no retransmissions recorded despite losses")
	}
}

func TestAMPollTriggersStatus(t *testing.T) {
	var eng sim.Engine
	statuses := 0
	tx := NewAMTx(&eng, TxBufConfig{Queues: 1, LimitSDUs: 100})
	rx := NewAMRx(&eng, func(*SDU) {}, func(*StatusPDU) { statuses++ })
	for i := 0; i < DefaultPollPDU+2; i++ {
		tx.Enqueue(mkSDU(100, 0, 1))
	}
	for i := 0; i < DefaultPollPDU+2; i++ {
		// Grant of exactly one SDU + header: one PDU per pull.
		for _, pdu := range tx.PullAppend(nil, 102) {
			rx.Receive(pdu)
		}
	}
	// Bounded run: with no status path wired back, t-PollRetransmit
	// keeps re-polling (by design), so the event queue never drains.
	eng.RunUntil(sim.Second)
	if statuses == 0 {
		t.Fatal("poll bit never triggered a status report")
	}
}

func TestAMStatusProhibitThrottles(t *testing.T) {
	var eng sim.Engine
	statuses := 0
	rx := NewAMRx(&eng, func(*SDU) {}, func(*StatusPDU) { statuses++ })
	// Two polled PDUs back-to-back: the second status must be held by
	// t-StatusProhibit.
	mk := func(sn uint32) *PDU {
		s := mkSDU(100, 0, 1)
		return &PDU{SN: sn, Poll: true, Bytes: 102,
			Segments: []Segment{{SDU: s, Len: 100, Last: true}}}
	}
	rx.Receive(mk(0))
	rx.Receive(mk(1))
	if statuses != 1 {
		t.Fatalf("statuses %d before prohibit expiry, want 1", statuses)
	}
	eng.RunUntil(2 * DefaultTStatusProhibit)
	if statuses != 2 {
		t.Fatalf("pending status not sent after prohibit: %d", statuses)
	}
}

func TestAMAbandonAfterMaxRetx(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	for i := 0; i < 5; i++ {
		p.tx.Enqueue(mkSDU(500, 0, 1))
	}
	// Drop SN 1 forever: mark loss on every transmission by wrapping
	// the pump manually. Grant 502 aligns PDUs with SDUs.
	for i := 0; i < 2000; i++ {
		p.eng.After(sim.Time(i)*sim.Millisecond, func() {
			for _, pdu := range p.tx.PullAppend(nil, 502) {
				pdu := pdu
				if pdu.SN == 1 {
					continue // black hole
				}
				p.eng.After(sim.Millisecond, func() { p.rx.Receive(pdu) })
			}
		})
	}
	eng.RunUntil(2 * sim.Second)
	if p.tx.Abandoned() == 0 {
		t.Fatal("endlessly lost PDU never abandoned")
	}
	if len(p.delivered) != 4 {
		t.Fatalf("delivered %d/4 survivable SDUs", len(p.delivered))
	}
}

func TestAMStatusAckFreesState(t *testing.T) {
	var eng sim.Engine
	tx := NewAMTx(&eng, TxBufConfig{Queues: 1, LimitSDUs: 100})
	tx.Enqueue(mkSDU(100, 0, 1))
	out := tx.PullAppend(nil, 200)
	if len(out) != 1 {
		t.Fatal("setup")
	}
	if len(tx.txed) != 1 {
		t.Fatalf("txed size %d", len(tx.txed))
	}
	tx.OnStatus(&StatusPDU{AckSN: 1})
	if len(tx.txed) != 0 {
		t.Fatal("acked PDU retained")
	}
}

// TestAMMaxRetxDeliveryFail pins the delivery-failure signal: before
// OnDeliveryFail existed, exhausting maxRetx silently discarded the
// PDU (only a counter moved) — a test like this one, asserting that
// the upper layer is told which SN died, would have passed vacuously.
func TestAMMaxRetxDeliveryFail(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	var failedSNs []uint32
	p.tx.OnDeliveryFail = func(sn uint32, pdu *PDU) {
		if pdu == nil {
			t.Error("delivery-fail callback got nil PDU")
		}
		failedSNs = append(failedSNs, sn)
	}
	for i := 0; i < 5; i++ {
		p.tx.Enqueue(mkSDU(500, 0, 1))
	}
	// Black-hole SN 1 on every attempt.
	for i := 0; i < 2000; i++ {
		p.eng.After(sim.Time(i)*sim.Millisecond, func() {
			for _, pdu := range p.tx.PullAppend(nil, 502) {
				pdu := pdu
				if pdu.SN == 1 {
					continue
				}
				p.eng.After(sim.Millisecond, func() { p.rx.Receive(pdu) })
			}
		})
	}
	eng.RunUntil(2 * sim.Second)
	if p.tx.Abandoned() == 0 {
		t.Fatal("setup: PDU never abandoned")
	}
	if uint64(len(failedSNs)) != p.tx.Abandoned() {
		t.Fatalf("%d delivery failures signalled, %d PDUs abandoned", len(failedSNs), p.tx.Abandoned())
	}
	for _, sn := range failedSNs {
		if sn != 1 {
			t.Fatalf("delivery failure reported for SN %d, only SN 1 was lost", sn)
		}
	}
}

// TestAMTxAuditDetectsCorruption drives the structural audit with
// deliberately corrupted transmitter state.
func TestAMTxAuditDetectsCorruption(t *testing.T) {
	var eng sim.Engine
	tx := NewAMTx(&eng, TxBufConfig{Queues: 1, LimitSDUs: 100})
	tx.Enqueue(mkSDU(100, 0, 1))
	if len(tx.PullAppend(nil, 200)) != 1 {
		t.Fatal("setup")
	}
	if err := tx.Audit(); err != nil {
		t.Fatalf("clean state failed audit: %v", err)
	}
	tx.retxQ = append(tx.retxQ, retx{sn: 5}, retx{sn: 3}) // descending
	if err := tx.Audit(); err == nil {
		t.Fatal("unordered retxQ passed audit")
	}
	tx.retxQ = nil
	tx.sn = 0 // now txed holds SN 0 >= next sn
	if err := tx.Audit(); err == nil {
		t.Fatal("txed SN beyond next-SN passed audit")
	}
	tx.sn = 1
	tx.retxCount[9] = 1 // orphaned: SN 9 not in txed
	if err := tx.Audit(); err == nil {
		t.Fatal("orphaned retxCount entry passed audit")
	}
}

// TestAMRxAuditDetectsCorruption does the same for the receiver.
func TestAMRxAuditDetectsCorruption(t *testing.T) {
	var eng sim.Engine
	rx := NewAMRx(&eng, func(*SDU) {}, func(*StatusPDU) {})
	if err := rx.Audit(); err != nil {
		t.Fatalf("clean state failed audit: %v", err)
	}
	rx.floor = 7
	rx.highest = 3
	if err := rx.Audit(); err == nil {
		t.Fatal("floor beyond highest passed audit")
	}
	rx.floor, rx.highest = 0, 8
	rx.held[9] = &PDU{SN: 9}
	if err := rx.Audit(); err == nil {
		t.Fatal("held PDU outside window passed audit")
	}
}

// TestAMRxNeverGivesUpOnItsOwn: a gap its transmitter has not abandoned
// holds the receiver's floor however long it lasts and however often
// the receiver NACKs it; the PDUs behind it are delivered once it fills.
func TestAMRxNeverGivesUpOnItsOwn(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	reports := 0
	rx := NewAMRx(&eng, func(s *SDU) { got = append(got, s.ID) }, func(*StatusPDU) { reports++ })
	pdus := make([]*PDU, 3)
	for i := range pdus {
		s := mkSDU(100, 0, 1)
		pdus[i] = &PDU{SN: uint32(i), Bytes: 102, Segments: []Segment{{SDU: s, Len: 100, Last: true}}}
	}
	rx.Receive(pdus[0])
	rx.Receive(pdus[2])
	eng.RunUntil(5 * sim.Second)
	if rx.floor != 1 || len(got) != 1 || rx.Discarded() != 0 {
		t.Fatalf("after %d status reports: floor %d, %d SDUs delivered, %d discarded; want the floor held at the gap (1), 1, 0",
			reports, rx.floor, len(got), rx.Discarded())
	}
	rx.Receive(pdus[1])
	if len(got) != 3 || rx.floor != 3 {
		t.Fatalf("gap filled: %d SDUs delivered, floor %d; want 3, 3", len(got), rx.floor)
	}
	rx.Close()
}

// TestAMRxAbandonDiscardsWhatThePDUCarried: the receiver skips an SN
// its transmitter abandoned and discards exactly the SDUs that PDU
// carried — the one it continued, the one it held whole and the one it
// began — each once; the rest of the begun SDU is dropped on arrival,
// and the SDUs around them are delivered.
func TestAMRxAbandonDiscardsWhatThePDUCarried(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewAMRx(&eng, func(s *SDU) { got = append(got, s.ID) }, nil)
	a, b, c, d := mkSDU(100, 0, 1), mkSDU(50, 0, 1), mkSDU(100, 0, 1), mkSDU(80, 0, 1)
	pdus := []*PDU{
		{SN: 0, Segments: []Segment{{SDU: a, Len: 60}}},
		{SN: 1, Segments: []Segment{{SDU: a, Offset: 60, Len: 40, Last: true}, {SDU: b, Len: 50, Last: true}, {SDU: c, Len: 30}}},
		{SN: 2, Segments: []Segment{{SDU: c, Offset: 30, Len: 70, Last: true}, {SDU: d, Len: 80, Last: true}}},
	}
	rx.Receive(pdus[0])
	rx.Receive(pdus[2])
	rx.Abandon(3, &PDU{SN: 3}) // not yet received: skipped when the floor gets there
	rx.Abandon(1, pdus[1])
	if rx.Discarded() != 3 || !slices.Equal(got, []uint64{d.ID}) || len(rx.partials) != 0 || rx.floor != 4 {
		t.Fatalf("discarded %d, delivered %v, %d partial SDUs, floor %d; want 3, [%d], 0, 4",
			rx.Discarded(), got, len(rx.partials), rx.floor, d.ID)
	}
	// A late copy of an SN already processed, or one abandoned again,
	// changes nothing.
	rx.Receive(pdus[2])
	rx.Abandon(1, pdus[1])
	if rx.Discarded() != 3 || len(got) != 1 {
		t.Fatalf("after duplicates: discarded %d, delivered %d", rx.Discarded(), len(got))
	}
}

// TestAMResegmentsRetransmission: a NACKed PDU larger than every grant
// that follows goes out as AMD PDU segments (TS 38.322 §5.3.2), each
// within its grant and counted as one retransmission; the receiver
// rebuilds the PDU from them, in whatever order they arrive and with one
// of them twice, and delivers its SDUs once the last is in.
func TestAMResegmentsRetransmission(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	p.tx.Enqueue(mkSDU(1000, 0, 1))
	p.tx.Enqueue(mkSDU(1000, 0, 1))
	if first := p.tx.PullAppend(nil, 2100); len(first) != 1 || len(first[0].Segments) != 2 {
		t.Fatalf("setup: %d PDUs, want one carrying both SDUs", len(first))
	} // lost on the air
	p.tx.OnStatus(&StatusPDU{AckSN: 1, Nacks: []Nack{{SN: 0}}})
	var pieces []*PDU
	for len(p.tx.retxQ) > 0 && len(pieces) < 20 {
		pieces = p.tx.PullAppend(pieces, 300)
	}
	so := 0
	for _, re := range pieces {
		if re.SN != 0 || re.Whole != 2000 || re.SO != so || re.Bytes > 300 || !re.Retx {
			t.Fatalf("piece %+v after %d bytes; want SN 0 of 2000 bytes, from byte %d, within 300", re, so, so)
		}
		so += re.PayloadBytes()
	}
	if so != 2000 || len(pieces) < 7 || p.tx.retxCount[0] != 1 {
		t.Fatalf("%d pieces carried %d bytes, retransmission count %d; want 2000 bytes in at least 7, counted once",
			len(pieces), so, p.tx.retxCount[0])
	}
	slices.Reverse(pieces)
	for i, re := range slices.Concat(pieces[:1], pieces) {
		if len(p.delivered) != 0 {
			t.Fatalf("delivered %v after %d of %d pieces, one of them twice", p.delivered, i, len(pieces))
		}
		p.rx.Receive(re)
	}
	if len(p.delivered) != 2 || len(p.rx.pieces) != 0 || p.rx.floor != 1 || p.rx.Discarded() != 0 {
		t.Fatalf("delivered %v, %d SNs in pieces, floor %d, %d discarded; want both SDUs, none, 1, 0",
			p.delivered, len(p.rx.pieces), p.rx.floor, p.rx.Discarded())
	}
}

// TestAMRxWaitsOutHARQReordering: a gap that a HARQ retransmission fills
// within t-Reassembly is never NACKed. The poll that arrived above the
// gap is answered once the gap fills, acknowledging everything.
func TestAMRxWaitsOutHARQReordering(t *testing.T) {
	var eng sim.Engine
	var reports []*StatusPDU
	rx := NewAMRx(&eng, func(*SDU) {}, func(st *StatusPDU) { reports = append(reports, st) })
	pdus := make([]*PDU, 3)
	for i := range pdus {
		pdus[i] = &PDU{SN: uint32(i), Bytes: 102, Segments: []Segment{{SDU: mkSDU(100, 0, 1), Len: 100, Last: true}}}
	}
	pdus[2].Poll = true
	rx.Receive(pdus[0])
	rx.Receive(pdus[2])
	eng.After(DefaultTReassembly/2, func() { rx.Receive(pdus[1]) })
	eng.RunUntil(sim.Second)
	if len(reports) != 1 || reports[0].AckSN != 3 || len(reports[0].Nacks) != 0 {
		t.Fatalf("status reports %+v; want one, acknowledging SN 0–2 and NACKing nothing", reports)
	}
}

// TestAMLostRetransmissionReNACKedThroughPoll: the first NACK of a gap
// waits out t-Reassembly; when the NACKed PDU's retransmission is lost
// too, the receiver stays silent, with no clock of its own, until the
// transmitter's next poll, whose answer NACKs the gap again.
func TestAMLostRetransmissionReNACKedThroughPoll(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	type report struct {
		at    sim.Time
		nacks []Nack
	}
	var reports []report
	p.rx.SendStatus = func(st *StatusPDU) {
		reports = append(reports, report{eng.Now(), st.Nacks})
		eng.After(sim.Millisecond, func() { p.tx.OnStatus(st) })
	}
	var gapAt, pollAt []sim.Time // arrivals above the gap; polled PDUs
	drops := 0
	for i := 0; i < 5; i++ {
		p.tx.Enqueue(mkSDU(500, 0, 1))
	}
	eng.After(60*sim.Millisecond, func() {
		p.tx.Enqueue(mkSDU(500, 0, 1))
		p.tx.Enqueue(mkSDU(500, 0, 1))
	})
	for i := 0; i < 300; i++ {
		eng.After(sim.Time(i)*sim.Millisecond, func() {
			for _, pdu := range p.tx.PullAppend(nil, 502) {
				if pdu.SN == 1 && drops < 2 {
					drops++ // the first transmission and the first retransmission
					continue
				}
				eng.After(sim.Millisecond, func() {
					if pdu.SN > 1 && len(gapAt) == 0 {
						gapAt = append(gapAt, eng.Now())
					}
					if pdu.Poll {
						pollAt = append(pollAt, eng.Now())
					}
					p.rx.Receive(pdu)
				})
			}
		})
	}
	eng.RunUntil(sim.Second)
	if len(p.delivered) != 7 || p.tx.Abandoned() != 0 || drops != 2 {
		t.Fatalf("delivered %d of 7 SDUs, %d abandoned, %d drops", len(p.delivered), p.tx.Abandoned(), drops)
	}
	var nacked []sim.Time
	for _, r := range reports {
		if len(r.nacks) > 0 {
			nacked = append(nacked, r.at)
		}
	}
	if len(nacked) != 2 || nacked[0] < gapAt[0]+DefaultTReassembly || !slices.Contains(pollAt, nacked[1]) {
		t.Fatalf("SN 1 NACKed at %v, the gap seen at %v, polls at %v; want twice: t-Reassembly after the gap, then on a poll", nacked, gapAt, pollAt)
	}
	for _, r := range reports {
		if r.at > nacked[0] && r.at < nacked[1] {
			t.Fatalf("status at %v between the two NACKs (%v): the receiver reported on a clock of its own", r.at, nacked)
		}
	}
}
