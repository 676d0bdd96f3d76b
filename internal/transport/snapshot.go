package transport

import (
	"fmt"

	"outran/internal/sim"
	"outran/internal/snapshot"
)

// Snapshot section tags (see snapshot.Walker.Mark).
const (
	tagSender   = 0x7301
	tagReceiver = 0x7302
)

// Walk is the sender's checkpoint layout: its full mutable state,
// including the congestion controller, the RTT estimator, the live RTO
// timer arm and the Karn send times (a count, then (seq, at) in
// ascending seq for each segment not retransmitted). Construction inputs
// (cfg, tuple, size, callbacks) are not part of it: the restore side
// rebuilds the sender from the same flow metadata and decodes this
// state over it.
func (s *Sender) Walk(w *snapshot.Walker) {
	w.Mark(tagSender)
	w.I64(&s.nextSeq)
	w.I64(&s.highestAcked)
	w.F64(&s.cwnd)
	w.F64(&s.ssthresh)
	w.F64(&s.cubic.wMax)
	snapshot.I64(w, &s.cubic.epochStart)
	w.F64(&s.cubic.k)
	w.F64(&s.cubic.ackCount)
	w.Bool(&s.cubic.started)
	w.Int(&s.dupAcks)
	w.Bool(&s.inRecovery)
	w.I64(&s.recoverSeq)
	w.I64(&s.rtoRecover)
	snapshot.I64(w, &s.srtt)
	snapshot.I64(w, &s.rttvar)
	snapshot.I64(w, &s.rto)
	s.rtoTimer.Walk(w)
	s.walkSendTimes(w)
	w.Bool(&s.completed)
	w.Int(&s.retransmits)
	w.Int(&s.timeouts)
	w.Int(&s.segsSent)
}

// Walk is the receiver's checkpoint layout: its reassembly state.
func (r *Receiver) Walk(w *snapshot.Walker) {
	w.Mark(tagReceiver)
	snapshot.Slice(w, &r.ooo, 1<<24, 16, func(iv *interval) {
		w.I64(&iv.lo)
		w.I64(&iv.hi)
	})
	w.I64(&r.cumAck)
	w.I64(&r.bytesRecvd)
	snapshot.I64(w, &r.lastData)
}

// walkSendTimes walks the Karn send times. Decoding, into a fresh
// sender, rebuilds the slots from the pairs, which must be what a sender
// keeps: on the MSS grid, one per segment from at or above the ack floor
// up to nextSeq, each at a non-negative time.
func (s *Sender) walkSendTimes(w *snapshot.Walker) {
	mss, live := int64(s.cfg.MSS), s.sent[s.sentHead:]
	if !w.Decoding() {
		n := 0
		for _, at := range live {
			if at >= 0 {
				n++
			}
		}
		w.Len(n, 1<<24, 16)
		for i, at := range live {
			if seq := s.sentFirst + int64(i)*mss; at >= 0 {
				w.I64(&seq)
				snapshot.I64(w, &at)
			}
		}
		return
	}
	for n := w.Len(0, 1<<24, 16); n > 0 && w.Err() == nil; n-- {
		var seq int64
		var at sim.Time
		w.I64(&seq)
		snapshot.I64(w, &at)
		ok := seq == s.sentFirst+int64(len(s.sent))*mss
		if len(s.sent) == 0 {
			ok = seq%mss == 0 && seq >= s.highestAcked
		}
		if !ok || seq >= s.nextSeq || at < 0 {
			w.Fail(fmt.Errorf("%w: Karn send time %d at seq %d; want one per segment from ack %d to next seq %d on the %d-byte grid",
				snapshot.ErrCorrupt, at, seq, s.highestAcked, s.nextSeq, mss))
			break
		}
		if len(s.sent) == 0 {
			s.sentFirst = seq
		}
		s.sent = append(s.sent, at)
	}
	if live := int64(len(s.sent)); live > 0 && s.sentFirst+live*mss < s.nextSeq && w.Err() == nil {
		w.Fail(fmt.Errorf("%w: Karn send times stop at seq %d, short of next seq %d",
			snapshot.ErrCorrupt, s.sentFirst+(live-1)*mss, s.nextSeq))
	}
}
