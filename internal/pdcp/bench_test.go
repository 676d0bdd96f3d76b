package pdcp

import (
	"testing"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/sim"
)

// BenchmarkSubmit measures the full PDCP ingress path: header
// serialisation, five-tuple inspection, flow-table update, MLFQ
// tagging, and (immediate mode) SN assignment + AES-CTR ciphering.
// This is the paper's "~150 ns per PDCP SDU" overhead claim (§6.1).
func BenchmarkSubmit(b *testing.B) {
	eng := &sim.Engine{}
	var seq uint64
	tx, err := NewTx(eng, TxConfig{SNBits: 12, Bearer: 6}, mlfqCls{core.DefaultMLFQ()}, &seq)
	if err != nil {
		b.Fatal(err)
	}
	pkt := testPkt(5000, 0, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Tuple.DstPort = uint16(1024 + i%1000) // 1000 active flows
		if tx.Submit(pkt, FlowMeta{FlowSize: -1}) == nil {
			b.Fatal("submit failed")
		}
	}
}

// BenchmarkSubmitAfterPortWrap prices Submit on new flows after the
// cell's port counter has wrapped, when every new flow's key lands mid-
// table: the table holds the lap before the wrap on even ports, and each
// new flow takes the next odd port. It grows from 4 096 to 8 192 tracked
// flows, then is rebuilt off the clock; compare BenchmarkSubmit, whose
// 1 000 flows are all tracked already.
func BenchmarkSubmitAfterPortWrap(b *testing.B) {
	const lap = 4096
	var tx *Tx
	fill := func() {
		var err error
		var seq uint64
		if tx, err = NewTx(&sim.Engine{}, TxConfig{SNBits: 12, Bearer: 6}, mlfqCls{core.DefaultMLFQ()}, &seq); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < lap; i++ {
			tx.Submit(testPkt(uint16(10000+2*i), 0, 1400), FlowMeta{FlowSize: -1})
		}
	}
	fill()
	pkt := testPkt(0, 0, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%lap == 0 && i > 0 {
			b.StopTimer()
			fill()
			b.StartTimer()
		}
		pkt.Tuple.DstPort = uint16(10001 + 2*(i%lap))
		if tx.Submit(pkt, FlowMeta{FlowSize: -1}) == nil {
			b.Fatal("submit failed")
		}
	}
}

// BenchmarkSubmitDelayedSN isolates the inspection path (ciphering
// deferred to transmission).
func BenchmarkSubmitDelayedSN(b *testing.B) {
	eng := &sim.Engine{}
	var seq uint64
	tx, err := NewTx(eng, TxConfig{SNBits: 12, Bearer: 6, DelayedSN: true}, mlfqCls{core.DefaultMLFQ()}, &seq)
	if err != nil {
		b.Fatal(err)
	}
	pkt := testPkt(5000, 0, 1400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Tuple.DstPort = uint16(1024 + i%1000)
		if tx.Submit(pkt, FlowMeta{FlowSize: -1}) == nil {
			b.Fatal("submit failed")
		}
	}
}

// BenchmarkDecipher measures the UE-side receive path.
func BenchmarkDecipher(b *testing.B) {
	eng := &sim.Engine{}
	var seq uint64
	cfg := TxConfig{SNBits: 12, Bearer: 6}
	tx, err := NewTx(eng, cfg, nil, &seq)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := NewRx(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	sdu := tx.Submit(testPkt(5000, 0, 1400), FlowMeta{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.next = 0 // replay the same SDU
		rx.OnSDU(sdu)
	}
	if rx.DecipherFailures() > 0 {
		b.Fatal("decipher failures in bench")
	}
}

var sinkTuple ip.FiveTuple

// BenchmarkParseFiveTuple is the raw header-inspection hot path.
func BenchmarkParseFiveTuple(b *testing.B) {
	pkt := testPkt(5000, 1, 1400)
	buf := make([]byte, ip.HeadersLen)
	if _, err := pkt.Marshal(buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft, err := ip.ParseFiveTuple(buf)
		if err != nil {
			b.Fatal(err)
		}
		sinkTuple = ft
	}
}
