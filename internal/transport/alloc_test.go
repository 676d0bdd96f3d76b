package transport

import (
	"testing"

	"outran/internal/ip"
	"outran/internal/probetest"
	"outran/internal/sim"
)

// TestZeroAllocs pins every //outran:allocfree function in this
// package with an AllocsPerRun probe; probetest.Run fails when the
// probe registry and the annotations drift apart.
func TestZeroAllocs(t *testing.T) {
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*Sender).OnAck": func(t *testing.T) {
			// One long flow cycled through every path an ACK takes: a
			// stretch of new data in slow start and congestion avoidance,
			// duplicates into fast recovery and past it, a partial ACK,
			// recovery's end, and go-back-N repair after a timeout. The
			// clock stands still and a loss ends slow start at once, so
			// the window stays a few segments wide, and the send-time
			// array, once grown, slides instead of growing: it stays under
			// four times the most ever in flight, far below the stretch's
			// 200 segments.
			const mss = 1000
			s := NewSender(&sim.Engine{}, Config{MSS: mss}, ip.FiveTuple{}, 1<<40)
			s.Send = func(ip.Packet) {}
			maxLive := 0
			ack := func(seq int64) {
				s.OnAck(seq)
				maxLive = max(maxLive, len(s.sent)-s.sentHead)
			}
			cycle := func() {
				for range 200 {
					ack(s.highestAcked + mss)
				}
				for range 4 {
					ack(s.highestAcked)
				}
				ack(s.highestAcked + mss)
				ack(s.recoverSeq)
				s.onRTO()
				ack(s.highestAcked + mss)
				ack(s.rtoRecover)
			}
			s.Start()
			for range 3 {
				ack(0)
			}
			for range 100 {
				cycle()
			}
			retx := s.Retransmits()
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Errorf("OnAck: %.1f allocs per cycle, want 0", allocs)
			}
			// Per cycle: the fast retransmit, the partial ACK's, the
			// timeout's and the go-back-N one.
			if got := s.Retransmits() - retx; got != 4*101 {
				t.Errorf("%d retransmissions over 101 cycles, want %d: the cycle misses a path", got, 4*101)
			}
			if cap(s.sent) > 4*maxLive {
				t.Errorf("send-time array of %d slots for at most %d segments in flight", cap(s.sent), maxLive)
			}

			// The ACK that completes a flow, on senders started beforehand.
			eng := &sim.Engine{}
			flows := make([]*Sender, 101)
			for i := range flows {
				flows[i] = NewSender(eng, Config{}, ip.FiveTuple{}, 10*1400)
				flows[i].OnComplete = func() {}
				flows[i].Start()
			}
			next := 0
			allocs := testing.AllocsPerRun(100, func() {
				flows[next].OnAck(10 * 1400)
				next++
			})
			if allocs != 0 || !flows[100].Completed() {
				t.Errorf("completing OnAck: %.1f allocs, completed %v; want 0, true", allocs, flows[100].Completed())
			}
		},
	})
}
