package transport

import (
	"cmp"
	"slices"
	"testing"

	"outran/internal/ip"
	"outran/internal/rng"
	"outran/internal/sim"
)

// sendTime is one Karn entry: a segment's seq and first send time.
type sendTime struct {
	seq int64
	at  sim.Time
}

// sendTimes lists the sender's Karn send times in ascending seq.
func sendTimes(s *Sender) []sendTime {
	var out []sendTime
	for i, at := range s.sent[s.sentHead:] {
		if at >= 0 {
			out = append(out, sendTime{s.sentFirst + int64(i)*int64(s.cfg.MSS), at})
		}
	}
	return out
}

// karnMap is the map-based Karn bookkeeping the sender used to keep,
// frozen, fed from the wire alone: a segment at or past the highest
// sequence seen is a first transmission and stamps its send time, any
// other is a retransmission and forgets it; a new cumulative ACK samples
// the RTT from the segment it starts at, then sweeps the whole map below
// itself. The estimator is RFC 6298's, and a timeout doubles the RTO.
type karnMap struct {
	sentAt            map[int64]sim.Time
	wireNext, acked   int64
	srtt, rttvar, rto sim.Time
}

func newKarnMap() *karnMap {
	return &karnMap{sentAt: map[int64]sim.Time{}, rto: initialRTO}
}

func (k *karnMap) send(seq int64, n int, now sim.Time) {
	if seq >= k.wireNext {
		k.sentAt[seq] = now
		k.wireNext = seq + int64(n)
	} else {
		delete(k.sentAt, seq)
	}
}

func (k *karnMap) timeout() { k.rto = min(2*k.rto, maxRTO) }

func (k *karnMap) ack(ack int64, now sim.Time) {
	if ack <= k.acked {
		return
	}
	if t0, ok := k.sentAt[k.acked]; ok && now-t0 > 0 {
		rtt := now - t0
		if k.srtt == 0 {
			k.srtt, k.rttvar = rtt, rtt/2
		} else {
			d := k.srtt - rtt
			if d < 0 {
				d = -d
			}
			k.rttvar = (3*k.rttvar + d) / 4
			k.srtt = (7*k.srtt + rtt) / 8
		}
		k.rto = min(max(k.srtt+4*k.rttvar, minRTO), maxRTO)
	}
	for seq := range k.sentAt {
		if seq < ack {
			delete(k.sentAt, seq)
		}
	}
	k.acked = ack
}

func (k *karnMap) list() []sendTime {
	out := make([]sendTime, 0, len(k.sentAt))
	for seq, at := range k.sentAt {
		out = append(out, sendTime{seq, at})
	}
	slices.SortFunc(out, func(a, b sendTime) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// lossPhase returns the data and ACK loss probabilities of the next
// phase and how long it lasts.
type lossPhase func() (dataP, ackP float64, d sim.Time)

// karnRun sends a size-byte flow through a 10 ms pipe whose data and ACK
// loss follow phase, and after every ACK compares the sender's send
// times, SRTT, RTTVAR and RTO with the frozen karnMap fed the same
// wire. The flow must complete; it returns the sender and the number of
// ACKs checked.
func karnRun(t testing.TB, cfg Config, size int64, r *rng.Source, phase lossPhase) (*Sender, int) {
	eng := &sim.Engine{}
	s := NewSender(eng, cfg, ip.FiveTuple{SrcPort: 443, DstPort: 1000, Proto: ip.ProtoTCP}, size)
	recv := &Receiver{}
	const delay = 10 * sim.Millisecond
	var dataP, ackP float64
	var phaseEnd sim.Time
	lost := func(p *float64) bool {
		if now := eng.Now(); now >= phaseEnd {
			var d sim.Time
			dataP, ackP, d = phase()
			phaseEnd = now + d
		}
		return r.Float64() < *p
	}
	ref := newKarnMap()
	timeouts, acks := 0, 0
	s.Send = func(pkt ip.Packet) {
		if s.Timeouts() != timeouts {
			timeouts = s.Timeouts()
			ref.timeout()
		}
		seq, n := int64(pkt.Seq), pkt.PayloadLen
		ref.send(seq, n, eng.Now())
		if !lost(&dataP) {
			eng.After(delay, func() { recv.OnData(seq, n, eng.Now()) })
		}
	}
	recv.SendAck = func(ack int64) {
		if lost(&ackP) {
			return
		}
		eng.After(delay, func() {
			if s.Completed() {
				return
			}
			ref.ack(ack, eng.Now())
			s.OnAck(ack)
			acks++
			if got, want := sendTimes(s), ref.list(); !slices.Equal(got, want) {
				t.Fatalf("ack %d at %v: send times %v, the full-sweep map keeps %v", ack, eng.Now(), got, want)
			}
			if s.srtt != ref.srtt || s.rttvar != ref.rttvar || s.rto != ref.rto {
				t.Fatalf("ack %d at %v: srtt %v rttvar %v rto %v, the map's estimator has %v %v %v",
					ack, eng.Now(), s.srtt, s.rttvar, s.rto, ref.srtt, ref.rttvar, ref.rto)
			}
		})
	}
	s.Start()
	eng.RunUntil(600 * sim.Second)
	if !s.Completed() {
		t.Fatalf("%d-byte flow did not complete (cumAck %d)", size, recv.CumAck())
	}
	return s, acks
}

// TestSentAtMatchesFullSweep drives senders through random data loss,
// ACK loss and blackouts (fast recovery, partial ACKs, RTO go-back-N)
// and, after every ACK, compares the send times and the RTT estimator
// with the frozen map-based bookkeeping (karnMap).
func TestSentAtMatchesFullSweep(t *testing.T) {
	var acks, retransmits, timeouts int
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		cfg := Config{MSS: []int{1400, 536, 1}[seed%3]}
		size := int64(cfg.MSS)*int64(100+r.Intn(900)) + int64(r.Intn(cfg.MSS))
		// Loss comes in phases so every recovery path is visited.
		s, n := karnRun(t, cfg, size, r, func() (float64, float64, sim.Time) {
			p := []float64{0, 0.02, 0.1, 0.4, 1}[r.Intn(5)]
			return p, p, sim.Time(5+r.Intn(100)) * sim.Millisecond
		})
		acks += n
		retransmits += s.Retransmits()
		timeouts += s.Timeouts()
	}
	if acks < 1000 || retransmits < 100 || timeouts < 10 {
		t.Fatalf("%d acks checked over %d retransmits and %d timeouts; the patterns exercise too little",
			acks, retransmits, timeouts)
	}
}

// FuzzSendTimes is TestSentAtMatchesFullSweep over fuzzed flows: the MSS
// (1, 536 or 1400 bytes), the flow's size, and a program of loss phases,
// one byte each — its data and ACK loss probabilities and its length.
// Past the program the pipe is clean, so the flow completes.
func FuzzSendTimes(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(300), []byte{0, 7, 24, 4, 99, 0, 203, 124})
	f.Add(uint64(2), uint8(1), uint16(900), []byte{2, 2, 2, 3, 3, 4, 4, 4, 4})
	f.Add(uint64(3), uint8(2), uint16(1000), []byte{1, 6, 11, 16, 21, 23, 250})
	f.Fuzz(func(t *testing.T, seed uint64, mssSel uint8, segs uint16, prog []byte) {
		cfg := Config{MSS: []int{1, 536, 1400}[mssSel%3]}
		r := rng.New(seed)
		size := int64(cfg.MSS)*int64(1+segs%1000) + int64(r.Intn(cfg.MSS))
		if len(prog) > 64 {
			prog = prog[:64]
		}
		levels := []float64{0, 0.02, 0.1, 0.4, 1}
		karnRun(t, cfg, size, r, func() (float64, float64, sim.Time) {
			if len(prog) == 0 {
				return 0, 0, 600 * sim.Second
			}
			b := prog[0]
			prog = prog[1:]
			return levels[b%5], levels[b/5%5], sim.Time(5+10*int(b/25)) * sim.Millisecond
		})
	})
}
