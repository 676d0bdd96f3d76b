package rlc

import (
	"testing"

	"outran/internal/probetest"
	"outran/internal/sim"
)

// statusBuf builds a populated tx buffer for the BSR probes.
func statusBuf() *txBuf {
	b := newTxBuf(TxBufConfig{Queues: 4})
	for i := 0; i < 4; i++ {
		s := mkSDU(500, i, uint16(i))
		s.FlowSize = 2000
		b.enqueue(s)
	}
	return b
}

// TestZeroAllocs pins every //outran:allocfree function in this
// package with an AllocsPerRun probe; probetest.Run fails when the
// probe registry and the annotations drift apart. The status probes
// rely on AllocsPerRun's warm-up call to grow the PerPriority scratch
// before measurement.
func TestZeroAllocs(t *testing.T) {
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*txBuf).status": func(t *testing.T) {
			b := statusBuf()
			allocs := testing.AllocsPerRun(100, func() {
				if st := b.status(0); st.TotalBytes == 0 {
					t.Fatal("empty status")
				}
			})
			if allocs != 0 {
				t.Errorf("status: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*UMTx).Status": func(t *testing.T) {
			um := NewUMTx(TxBufConfig{Queues: 4})
			for i := 0; i < 4; i++ {
				um.Enqueue(mkSDU(500, i, uint16(i)))
			}
			allocs := testing.AllocsPerRun(100, func() {
				if st := um.Status(0); st.TotalBytes == 0 {
					t.Fatal("empty status")
				}
			})
			if allocs != 0 {
				t.Errorf("UM Status: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*AMTx).Status": func(t *testing.T) {
			var eng sim.Engine
			am := NewAMTx(&eng, TxBufConfig{Queues: 4})
			for i := 0; i < 4; i++ {
				am.Enqueue(mkSDU(500, i, uint16(i)))
			}
			// Build one PDU so txed bookkeeping is live.
			if pdus := am.PullAppend(nil, 256); len(pdus) == 0 {
				t.Fatal("no PDU built")
			}
			allocs := testing.AllocsPerRun(100, func() {
				if st := am.Status(0); st.TotalBytes == 0 {
					t.Fatal("empty status")
				}
			})
			if allocs != 0 {
				t.Errorf("AM Status: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*reassembly).fold": func(t *testing.T) {
			// An older SDU half sent while a newer one completes and the
			// next one starts: once the table has grown, partial SDUs are
			// inserted and completed in place.
			r := &reassembly{}
			old, done, next := mkSDU(300, 1, 1), mkSDU(100, 0, 2), mkSDU(200, 0, 3)
			pdus := []*PDU{
				{Segments: []Segment{{SDU: old, Len: 100}}},
				{Segments: []Segment{{SDU: done, Len: 100, Last: true}, {SDU: next, Len: 100}}},
				{Segments: []Segment{{SDU: old, Offset: 100, Len: 100}, {SDU: next, Offset: 100, Len: 100, Last: true}}},
				{Segments: []Segment{{SDU: old, Offset: 200, Len: 100, Last: true}}},
			}
			delivered := 0
			deliver := func(*SDU) { delivered++ }
			allocs := testing.AllocsPerRun(100, func() {
				for _, pdu := range pdus {
					r.fold(pdu, 0, deliver)
				}
			})
			if allocs != 0 || delivered != 3*101 || len(r.partials) != 0 {
				t.Errorf("fold: %.1f allocs per four PDUs, %d SDUs delivered, %d partial; want 0, %d, 0", allocs, delivered, len(r.partials), 3*101)
			}
		},
		"(*PDU).AppendWireHeader": func(t *testing.T) {
			p := &PDU{SN: 42, Segments: []Segment{
				{Offset: 10, Len: 100},
				{Offset: 0, Len: 200, Last: true},
			}}
			buf := make([]byte, 0, 64)
			allocs := testing.AllocsPerRun(100, func() {
				var err error
				buf, err = p.AppendWireHeader(buf[:0])
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("AppendWireHeader: %.1f allocs/PDU, want 0", allocs)
			}
		},
	})
}
