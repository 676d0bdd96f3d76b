package rlc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestAMWalkRoundTrip: an AM bearer caught with PDUs unacknowledged, a
// loss being recovered, PDUs held behind the gap, an SN abandoned
// beyond them, a retransmission part sent as a segment the receiver
// holds, an SDU half reassembled and timers armed — its
// transmitter and receiver walked through one reference context, since
// they share SDUs — survives encode -> decode -> encode byte for byte,
// with the sharing intact.
func TestAMWalkRoundTrip(t *testing.T) {
	var eng sim.Engine
	p := newAMPair(&eng)
	for i := 0; i < 10; i++ {
		p.tx.Enqueue(mkSDU(500, 0, 1))
	}
	p.lossNext[1] = true
	p.pump(600, 30)
	eng.RunUntil(4*sim.Millisecond + 500*sim.Microsecond)
	// The newest SN sent is still on its way: abandon it as if its
	// retransmissions had run out.
	p.rx.Abandon(p.tx.sn-1, p.tx.txed[p.tx.sn-1])
	// The lost SN's retransmission, re-segmented: its first segment is in.
	p.tx.queueRetx(1, 0)
	for _, re := range p.tx.PullAppend(nil, 40) {
		p.rx.Receive(re)
	}
	if len(p.tx.txed) == 0 || len(p.rx.abandoned) == 0 || len(p.rx.held) == 0 || len(p.rx.pieces) == 0 || p.tx.retxQ[0].so == 0 ||
		len(p.rx.partials) == 0 || p.tx.buf.count == 0 || !p.rx.tReassembly.Running() {
		t.Fatalf("%d unacked, %d held, %d abandoned, %d in pieces, re-segmented to %d, %d partials, %d queued, t-Reassembly %v; the round trip would cover nothing",
			len(p.tx.txed), len(p.rx.held), len(p.rx.abandoned), len(p.rx.pieces), p.tx.retxQ[0].so, len(p.rx.partials), p.tx.buf.count, p.rx.tReassembly.Running())
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
// SDU at its head, a PDU held behind a gap, and two half-reassembled
// SDUs whose first segments came in the opposite order to their ids (a
// demoted SDU half sent, then an older one that outranks it).
func TestUMWalkRoundTrip(t *testing.T) {
	build := func() (*UMTx, *UMRx) {
		return NewUMTx(TxBufConfig{Queues: 2, LimitSDUs: 10}), NewUMRx(&sim.Engine{}, func(*SDU) {})
	}
	tx, rx := build()
	older, newer := mkSDU(900, 0, 1), mkSDU(900, 1, 2)
	tx.Enqueue(newer)
	first := tx.Pull(400)
	tx.Enqueue(older)
	second, _, fourth := tx.Pull(400), tx.Pull(400), tx.Pull(400)
	rx.Receive(first)
	rx.Receive(second)
	rx.Receive(fourth) // the third is lost: a gap
	if len(rx.held) == 0 || tx.buf.count == 0 || !rx.gapTimer.Running() ||
		len(rx.partials) != 2 || rx.partials[0].sdu != older || rx.partials[1].sdu != newer {
		t.Fatalf("%d held, %d partials, %d queued, gap timer %v; the round trip would cover nothing",
			len(rx.held), len(rx.partials), tx.buf.count, rx.gapTimer.Running())
	}
	tx2, rx2 := build()
	snapshottest.RoundTrip(t,
		func(w *snapshot.Walker) { refs := NewRefs(w); tx.Walk(refs); rx.Walk(refs) },
		func(w *snapshot.Walker) { refs := NewRefs(w); tx2.Walk(refs); rx2.Walk(refs) })
}

// TestReassemblyRejectsDisorderedPartials: a reassembly table whose ids
// descend or repeat, or whose SDU is nil, is corrupt input, and fails
// before anything is sized from it.
func TestReassemblyRejectsDisorderedPartials(t *testing.T) {
	sdu := func(id uint64) *SDU { return &SDU{ID: id, Size: 500} }
	same := sdu(10)
	for _, c := range []struct {
		name string
		sdus []*SDU
		want string
	}{
		{"descending id", []*SDU{sdu(20), sdu(10)}, "partial SDU id 10 after 20"},
		{"repeated id", []*SDU{same, same}, "partial SDU id 10 after 10"},
		{"nil SDU", []*SDU{sdu(10), nil}, "nil SDU reference"},
	} {
		payload := snapshottest.Encode(func(w *snapshot.Walker) {
			ps := make([]partialSDU, len(c.sdus))
			for i, s := range c.sdus {
				ps[i] = partialSDU{sdu: s, received: 100}
			}
			NewRefs(w).partials(&ps)
		})
		var r reassembly
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := snapshottest.Decode(payload, func(w *snapshot.Walker) { NewRefs(w).partials(&r.partials) })
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), c.want) || r.partials != nil {
			t.Errorf("%s: decode error %v, %d partials kept; want snapshot.ErrCorrupt naming %q, none kept", c.name, err, len(r.partials), c.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: decode allocated %d bytes on the way to failing, want < 1 MiB", c.name, n)
		}
	}
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
