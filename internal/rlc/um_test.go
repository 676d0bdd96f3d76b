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

func TestUMReassemblyTimeoutDiscards(t *testing.T) {
	var eng sim.Engine
	delivered := 0
	rx := NewUMRx(&eng, func(*SDU) { delivered++ })
	tx := NewUMTx(TxBufConfig{Queues: 1, LimitSDUs: 10})
	s := mkSDU(3000, 0, 1)
	tx.Enqueue(s)
	first := tx.Pull(800)
	rx.Receive(first)
	// The continuation never arrives within t-Reassembly.
	eng.RunUntil(DefaultTReassembly * 3)
	if delivered != 0 {
		t.Fatal("partial SDU delivered")
	}
	if rx.Discarded() != 1 {
		t.Fatalf("discarded=%d, want 1", rx.Discarded())
	}
	if len(rx.partials) != 0 {
		t.Fatal("partial retained after discard")
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
