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
	walkRanges(w, &s.sacked)
	w.I64(&s.highRxt)
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
	walkRanges(w, &r.ooo)
	w.I64(&r.cumAck)
	w.I64(&r.bytesRecvd)
	snapshot.I64(w, &r.lastData)
}

func walkRanges(w *snapshot.Walker, r *rangeSet) {
	snapshot.Slice(w, &r.ivs, 1<<24, 16, func(iv *interval) {
		w.I64(&iv.lo)
		w.I64(&iv.hi)
	})
}

// walkSendTimes walks the Karn send times. Decoding, into a fresh
// sender, rebuilds the slots from the pairs, which must be what a sender
// keeps: ascending on the MSS grid, from at or above the ack floor and
// below nextSeq, each at a non-negative time. The segments between two
// pairs, and after the last one up to nextSeq, were retransmitted (a
// SACK recovery repairs holes anywhere in the window) and get the
// retransmitted mark back.
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
		slot := s.sentFirst + int64(len(s.sent))*mss
		ok := seq >= slot && (seq-slot)%mss == 0
		if len(s.sent) == 0 {
			ok = seq%mss == 0 && seq >= s.highestAcked && (s.nextSeq-seq)/mss < 1<<24
		}
		if !ok || seq >= s.nextSeq || at < 0 {
			w.Fail(fmt.Errorf("%w: Karn send time %d at seq %d; want ascending segments from ack %d below next seq %d on the %d-byte grid",
				snapshot.ErrCorrupt, at, seq, s.highestAcked, s.nextSeq, mss))
			break
		}
		if len(s.sent) == 0 {
			s.sentFirst, slot = seq, seq
		}
		for ; slot < seq; slot += mss {
			s.sent = append(s.sent, -1)
		}
		s.sent = append(s.sent, at)
	}
	for slot := s.sentFirst + int64(len(s.sent))*mss; len(s.sent) > 0 && slot < s.nextSeq && w.Err() == nil; slot += mss {
		s.sent = append(s.sent, -1)
	}
}
