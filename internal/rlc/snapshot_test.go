package rlc

import (
	"errors"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestAMWalkRoundTrip: an AM bearer caught with PDUs unacknowledged, a
// loss being recovered, PDUs held behind the gap, an SDU half
// reassembled and timers armed — its transmitter and receiver walked
// through one reference context, since they share SDUs — survives
// encode -> decode -> encode byte for byte, with the sharing intact.
func TestAMWalkRoundTrip(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	for i := 0; i < 10; i++ {
		p.tx.Enqueue(mkSDU(500, 0, 1))
	}
	p.lossNext[1] = true
	p.pump(600, 30)
	eng.RunUntil(4*sim.Millisecond + 500*sim.Microsecond)
	if len(p.tx.txed) == 0 || len(p.rx.held) == 0 || len(p.rx.partials) == 0 || p.tx.buf.count == 0 || !p.rx.gapTimer.Running() {
		t.Fatalf("%d unacked, %d held, %d partials, %d queued, gap timer %v; the round trip would cover nothing",
			len(p.tx.txed), len(p.rx.held), len(p.rx.partials), p.tx.buf.count, p.rx.gapTimer.Running())
	}
	var eng2 sim.Engine
	fresh := newAMPair(&eng2)
	both := func(p *amPair) func(*snapshot.Walker) {
		return func(w *snapshot.Walker) {
			refs := NewRefs(w)
			p.tx.Walk(refs)
			p.rx.Walk(refs)
		}
	}
	img := snapshottest.RoundTrip(t, both(p), both(fresh))
	shared := 0
	for sn, pdu := range p.rx.held {
		if p.tx.txed[sn] != pdu {
			continue
		}
		shared++
		if fresh.tx.txed[sn] != fresh.rx.held[sn] {
			t.Fatalf("PDU %d is one object held by the receiver and unacknowledged at the transmitter, but restored as two", sn)
		}
	}
	if shared == 0 {
		t.Fatal("no PDU is shared between the two entities; the identity tables are not exercised")
	}
	if err := snapshottest.Decode(img, both(fresh)); !errors.Is(err, errDoubleRestore) {
		t.Fatalf("second decode into the same bearer: %v, want errDoubleRestore", err)
	}
}

// TestUMWalkRoundTrip is the UM counterpart: a queue with a partly sent
// SDU at its head, a PDU held behind a gap, a half-reassembled SDU.
func TestUMWalkRoundTrip(t *testing.T) {
	build := func() (*UMTx, *UMRx) {
		return NewUMTx(TxBufConfig{Queues: 2, LimitSDUs: 10}), NewUMRx(&sim.Engine{}, func(*SDU) {})
	}
	tx, rx := build()
	tx.Enqueue(mkSDU(900, 0, 1))
	tx.Enqueue(mkSDU(900, 1, 2))
	first, _, third := tx.Pull(400), tx.Pull(400), tx.Pull(400)
	rx.Receive(first)
	rx.Receive(third) // the second is lost: a gap
	if len(rx.held) == 0 || len(rx.partials) == 0 || tx.buf.count == 0 || !rx.gapTimer.Running() {
		t.Fatalf("%d held, %d partials, %d queued, gap timer %v; the round trip would cover nothing",
			len(rx.held), len(rx.partials), tx.buf.count, rx.gapTimer.Running())
	}
	tx2, rx2 := build()
	snapshottest.RoundTrip(t,
		func(w *snapshot.Walker) { refs := NewRefs(w); tx.Walk(refs); rx.Walk(refs) },
		func(w *snapshot.Walker) { refs := NewRefs(w); tx2.Walk(refs); rx2.Walk(refs) })
}

// TestLeafFieldsWalked: every field of an SDU, a PDU with its segments,
// a status PDU and a per-flow queue aggregate is checkpoint state.
func TestLeafFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*SDU).walk, nil)
	snapshottest.Fields(t, func(p *PDU, w *snapshot.Walker) {
		// Through a reference, as every PDU is walked; the marker byte in
		// front leaves the fields' round trip as it is.
		ref := p
		NewRefs(w).PDU(&ref)
		*p = *ref
	}, nil)
	snapshottest.Fields(t, (*StatusPDU).Walk, nil)
	snapshottest.Fields(t, (*flowAgg).walk, nil)
}

// TestRefsRejectHostileReferences: an index past the table, a nil where
// an object must be and an unknown marker are corrupt input.
func TestRefsRejectHostileReferences(t *testing.T) {
	for name, payload := range map[string][]byte{
		"index beyond the table": {refIndex, 3, 0, 0, 0},
		"nil reference":          {refNil},
		"unknown marker":         {9},
	} {
		var s *SDU
		err := snapshottest.Decode(payload, func(w *snapshot.Walker) { NewRefs(w).SDU(&s) })
		if !errors.Is(err, snapshot.ErrCorrupt) || s != nil {
			t.Errorf("%s: decode error %v (SDU %v), want snapshot.ErrCorrupt and nil", name, err, s)
		}
	}
}
