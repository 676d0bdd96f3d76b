package rlc

import (
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

// FuzzAMLink runs an AMTx/AMRx pair over a link with fuzzed PDU losses,
// reordering delays of up to three HARQ round trips and grant sizes,
// for a lossy second and then clean until the transmitter is idle, the
// status uplink lossless at the cell's 8 ms. Throughout and at the end:
//   - every SDU is delivered once and in order, or counted given up;
//   - no status NACKs an SN the receiver holds or has processed;
//   - once the link has been clean for settle, no SN the receiver has
//     held for settle is abandoned. settle is one t-PollRetransmit, for
//     a poll to reach the receiver, and the most a status takes to
//     report the SN: two t-Reassembly periods, t-StatusProhibit and the
//     uplink. While PDUs are lost, every poll after an SN's arrival can
//     be lost too, and retransmissions already decided may exhaust
//     maxRetx.
//
// At the end the transmitter holds nothing unacknowledged.
func FuzzAMLink(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(8), uint16(600))
	f.Add(uint64(2), uint8(40), uint8(25), uint16(90))
	f.Add(uint64(3), uint8(0), uint8(25), uint16(3000))
	f.Add(uint64(4), uint8(59), uint8(0), uint16(1500))
	// An SN's last copy arrives as its ninth transmission is decided,
	// and every poll after it is lost: abandoned while held, within settle.
	f.Add(uint64(0), uint8(59), uint8(11), uint16(1381))
	// An abandonment empties the retransmission queue after a PDU went
	// out without a poll: t-PollRetransmit must still cover it.
	f.Add(uint64(4), uint8(59), uint8(21), uint16(1578))
	f.Fuzz(func(t *testing.T, seed uint64, lossPct, maxDelayMs uint8, maxGrant uint16) {
		r := rng.New(seed)
		loss := float64(lossPct%60) / 100
		maxDelay := int(maxDelayMs % 26)
		grantSpan := 1 + int(maxGrant%3000)
		var eng sim.Engine
		tx := NewAMTx(&eng, TxBufConfig{Queues: 1, LimitSDUs: 1000})
		var delivered []uint64
		var rx *AMRx
		heldAt := map[uint32]sim.Time{}
		holds := func(sn uint32) bool {
			_, held := rx.held[sn]
			return held || sn < rx.floor
		}
		const lossy, end = sim.Second, 30 * sim.Second
		const settle = DefaultTPollRetransmit + 2*DefaultTReassembly + DefaultTStatusProhibit + 8*sim.Millisecond
		rx = NewAMRx(&eng, func(s *SDU) { delivered = append(delivered, s.ID) }, func(st *StatusPDU) {
			for _, n := range st.Nacks {
				if holds(n.SN) {
					t.Fatalf("%v: status NACKs SN %d, which the receiver holds (floor %d)", eng.Now(), n.SN, rx.floor)
				}
			}
			eng.After(8*sim.Millisecond, func() { tx.OnStatus(st) })
		})
		tx.OnDeliveryFail = func(sn uint32, pdu *PDU) {
			if at, ok := heldAt[sn]; ok && eng.Now()-at > settle && eng.Now()-lossy > settle {
				t.Fatalf("%v: SN %d abandoned, which the receiver has held since %v", eng.Now(), sn, at)
			}
			rx.Abandon(sn, pdu)
		}
		n := 20 + r.Intn(40)
		for range n {
			if !tx.Enqueue(mkSDU(1+r.Intn(3000), 0, 1)) {
				t.Fatal("setup: SDU tail-dropped")
			}
		}
		var tick func()
		tick = func() {
			for _, pdu := range tx.PullAppend(nil, 64+r.Intn(grantSpan)) {
				if eng.Now() < lossy && r.Float64() < loss {
					continue
				}
				d := sim.Millisecond
				if eng.Now() < lossy {
					d += sim.Time(r.Intn(maxDelay+1)) * sim.Millisecond
				}
				eng.After(d, func() {
					rx.Receive(pdu)
					if _, ok := heldAt[pdu.SN]; !ok && holds(pdu.SN) {
						heldAt[pdu.SN] = eng.Now()
					}
				})
			}
			if eng.Now() < lossy || (eng.Now() < end && tx.QueuedBytes()+len(tx.txed) > 0) {
				eng.After(sim.Millisecond, tick)
			}
		}
		tick()
		eng.RunUntil(end + sim.Second)
		for i := 1; i < len(delivered); i++ {
			if delivered[i] <= delivered[i-1] {
				t.Fatalf("SDU %d delivered after %d: out of order or twice", delivered[i], delivered[i-1])
			}
		}
		if got := uint64(len(delivered)) + rx.Discarded(); got != uint64(n) || len(tx.txed) != 0 {
			t.Fatalf("%d SDUs delivered and %d given up of %d (%d PDUs abandoned, floor %d, highest %d), %d SNs unacknowledged",
				len(delivered), rx.Discarded(), n, tx.Abandoned(), rx.floor, rx.highest, len(tx.txed))
		}
	})
}
