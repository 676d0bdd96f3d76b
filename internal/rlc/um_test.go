package rlc

import (
	"testing"

	"outran/internal/sim"
)

func TestUMDeliveryInOrder(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewUMRx(&eng, func(s *SDU) { got = append(got, s.ID) })
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	a, b := mkSDU(500, 0, 1), mkSDU(500, 0, 1)
	tx.Enqueue(a)
	tx.Enqueue(b)
	for {
		pdu := tx.Pull(400)
		if pdu == nil {
			break
		}
		rx.Receive(pdu)
	}
	eng.Run()
	if len(got) != 2 || got[0] != a.ID || got[1] != b.ID {
		t.Fatalf("delivered %v", got)
	}
	if rx.Delivered() != 2 || rx.Discarded() != 0 {
		t.Fatalf("delivered=%d discarded=%d", rx.Delivered(), rx.Discarded())
	}
}

func TestUMSNIncrements(t *testing.T) {
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	tx.Enqueue(mkSDU(100, 0, 1))
	tx.Enqueue(mkSDU(100, 0, 1))
	p1 := tx.Pull(150)
	p2 := tx.Pull(150)
	if p1.SN+1 != p2.SN {
		t.Fatalf("SNs %d, %d", p1.SN, p2.SN)
	}
}

func TestUMSegmentedAcrossPDUs(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewUMRx(&eng, func(s *SDU) { got = append(got, s.ID) })
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	s := mkSDU(3000, 0, 1)
	tx.Enqueue(s)
	for {
		pdu := tx.Pull(800)
		if pdu == nil {
			break
		}
		rx.Receive(pdu)
	}
	eng.Run()
	if len(got) != 1 || got[0] != s.ID {
		t.Fatalf("segmented SDU not reassembled: %v", got)
	}
}

// TestUMStarvedSDUWaits: a receiver that hears nothing newer keeps
// waiting. An SDU's first PDU, 50 ms of silence (longer than
// t-Reassembly), then the rest: it is delivered and nothing is
// discarded.
func TestUMStarvedSDUWaits(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewUMRx(&eng, func(s *SDU) { got = append(got, s.ID) })
	a := mkSDU(100, 0, 1)
	rx.Receive(&PDU{SN: 0, Segments: []Segment{{SDU: a, Len: 40}}})
	eng.At(50*sim.Millisecond, func() {
		rx.Receive(&PDU{SN: 1, Segments: []Segment{{SDU: a, Offset: 40, Len: 60, Last: true}}})
	})
	eng.RunUntil(200 * sim.Millisecond)
	if len(got) != 1 || rx.Discarded() != 0 || len(rx.partials) != 0 {
		t.Fatalf("delivered %v, discarded %d, %d partial SDUs; want [%d], 0, 0", got, rx.Discarded(), len(rx.partials), a.ID)
	}
}

// TestUMOvertakenSDUCountedOnce: a partial SDU overtaken by a newer SDU
// is discarded once t-Reassembly has passed, and its tail, arriving
// after that, is dropped on arrival: one discard, no partial left.
func TestUMOvertakenSDUCountedOnce(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewUMRx(&eng, func(s *SDU) { got = append(got, s.ID) })
	a, b := mkSDU(100, 1, 1), mkSDU(50, 0, 2)
	rx.Receive(&PDU{SN: 0, Segments: []Segment{{SDU: a, Len: 40}}})
	eng.At(sim.Millisecond, func() {
		rx.Receive(&PDU{SN: 1, Segments: []Segment{{SDU: b, Len: 50, Last: true}}})
	})
	eng.At(DefaultTReassembly+20*sim.Millisecond, func() {
		rx.Receive(&PDU{SN: 2, Segments: []Segment{{SDU: a, Offset: 40, Len: 60, Last: true}}})
	})
	eng.RunUntil(10 * DefaultTReassembly)
	if rx.Discarded() != 1 || len(rx.partials) != 0 || len(got) != 1 || got[0] != b.ID {
		t.Fatalf("discarded %d, %d partial SDUs, delivered %v; want 1, 0, [%d]", rx.Discarded(), len(rx.partials), got, b.ID)
	}
}

func TestUMLateContinuationWithinWindowOK(t *testing.T) {
	var eng sim.Engine
	delivered := 0
	rx := NewUMRx(&eng, func(*SDU) { delivered++ })
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	s := mkSDU(3000, 0, 1)
	tx.Enqueue(s)
	rx.Receive(tx.Pull(800))
	eng.At(DefaultTReassembly/2, func() {
		rx.Receive(tx.Pull(800))
	})
	eng.At(DefaultTReassembly, func() {
		rx.Receive(tx.Pull(4000))
	})
	eng.RunUntil(3 * DefaultTReassembly)
	if delivered != 1 {
		t.Fatalf("delivered=%d; continuation within window discarded", delivered)
	}
}

func TestUMLostPDUDiscardsOnlyItsSDUs(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewUMRx(&eng, func(s *SDU) { got = append(got, s.ID) })
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	a, b, c := mkSDU(500, 0, 1), mkSDU(500, 0, 1), mkSDU(500, 0, 1)
	tx.Enqueue(a)
	tx.Enqueue(b)
	tx.Enqueue(c)
	// Grant of exactly one SDU + header so PDUs align with SDUs.
	p1 := tx.Pull(502)
	p2 := tx.Pull(502) // lost
	p3 := tx.Pull(502)
	_ = p2
	rx.Receive(p1)
	rx.Receive(p3)
	eng.Run()
	if len(got) != 2 || got[0] != a.ID || got[1] != c.ID {
		t.Fatalf("delivered %v, want a and c", got)
	}
}

// TestUMHeadlessSDUCountedOnce: an SDU whose first PDU was lost is
// counted as discarded once, when its next segment arrives after the
// gap is skipped, and its tail is dropped on arrival without counting
// it again or leaving anything behind.
func TestUMHeadlessSDUCountedOnce(t *testing.T) {
	var eng sim.Engine
	var got []uint64
	rx := NewUMRx(&eng, func(s *SDU) { got = append(got, s.ID) })
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	a, b := mkSDU(1000, 0, 1), mkSDU(100, 0, 1)
	tx.Enqueue(a)
	tx.Enqueue(b)
	tx.Pull(402) // a's head, lost
	middle, tail := tx.Pull(402), tx.Pull(402)
	rx.Receive(middle) // held behind the gap until t-Reassembly skips it
	eng.RunUntil(2 * DefaultTReassembly)
	if rx.Skipped() != 1 || rx.Discarded() != 1 {
		t.Fatalf("gap skipped: %d PDUs skipped, %d SDUs discarded; want 1, 1", rx.Skipped(), rx.Discarded())
	}
	rx.Receive(tail)
	if rx.Discarded() != 1 || len(rx.partials)+len(rx.gone) != 0 || len(got) != 1 || got[0] != b.ID {
		t.Fatalf("tail in: %d discarded, %d entries left, delivered %v; want 1, 0, [%d]", rx.Discarded(), len(rx.partials)+len(rx.gone), got, b.ID)
	}
}

func TestUMDropsCounter(t *testing.T) {
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 1})
	if !tx.Enqueue(mkSDU(100, 0, 1)) {
		t.Fatal("first SDU dropped from an empty buffer")
	}
	if tx.Enqueue(mkSDU(100, 0, 1)) {
		t.Fatal("over-capacity enqueue accepted")
	}
	if tx.QueuedSDUs() != 1 || tx.buf.bytes != 100 {
		t.Fatalf("queued %d/%d", tx.QueuedSDUs(), tx.buf.bytes)
	}
}
