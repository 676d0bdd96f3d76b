package transport

import (
	"slices"

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
// timer arm and the Karn send-time map (in sorted seq order so encoding
// is deterministic). Construction inputs (cfg, tuple, size, callbacks)
// are not part of it: the restore side rebuilds the sender from the same
// flow metadata and decodes this state over it.
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
	snapshot.Map(w, s.sentAt, 1<<24, 16, slices.Sort, func(seq *int64, at *sim.Time) {
		w.I64(seq)
		snapshot.I64(w, at)
	})
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
