package transport

import (
	"outran/internal/ip"
	"outran/internal/sim"
)

// Config tunes a sender.
type Config struct {
	MSS int // payload bytes per segment; 0 takes 1400
}

// The sender's fixed parameters, one value each.
const (
	initCwnd     = 10                    // initial window in segments (RFC 6928)
	minRTO       = 200 * sim.Millisecond // RTO floor (Linux's TCP_RTO_MIN)
	maxRTO       = 8 * sim.Second        // RTO cap: cellular stacks bound the backoff well below RFC 6298's 60 s
	dupAckThresh = 3                     // duplicate ACKs that start fast recovery (RFC 5681)
	initialRTO   = 1 * sim.Second        // RTO before any RTT sample (RFC 6298 §2.1)
)

// Sender transmits one flow of Size bytes reliably toward a receiver.
// Output and completion are delivered through callbacks wired by the
// cell.
type Sender struct {
	eng   *sim.Engine
	cfg   Config
	tuple ip.FiveTuple
	size  int64

	// Send transmits one segment toward the UE.
	Send func(ip.Packet)
	// OnComplete fires once when every byte has been cumulatively
	// acknowledged.
	OnComplete func()

	nextSeq      int64
	highestAcked int64
	cwnd         float64
	ssthresh     float64
	cubic        cubicState
	dupAcks      int
	inRecovery   bool
	recoverSeq   int64
	// sacked is the SACK scoreboard: the ranges above highestAcked the
	// receiver reported holding. During recovery highRxt is the end of
	// the last hole retransmitted (RFC 6675's HighRxt): the holes below
	// the highest SACKed byte and above it are the ones deemed lost and
	// not yet repaired.
	sacked  rangeSet
	highRxt int64
	// rtoRecover is the pre-timeout send point. While acks are below
	// it, every unacked segment up there was (potentially) lost, so
	// each new ack retransmits the next hole instead of waiting for
	// dupacks that can never arrive — without this, a burst loss wider
	// than cwnd stalls at one segment per (backed-off) RTO, because
	// the lost bytes still count as inflight and block trySend.
	rtoRecover int64

	srtt, rttvar sim.Time
	rto          sim.Time
	rtoTimer     *sim.Timer
	// Karn send times: sent[sentHead+i] is the first send time of the
	// segment at sentFirst + i·MSS, or −1 once it has been retransmitted.
	// The live slots cover the segments in [sentFirst, nextSeq); an ACK
	// moves sentHead past the acked ones, and completion drops the array.
	sent      []sim.Time
	sentHead  int
	sentFirst int64

	completed   bool
	retransmits int
	timeouts    int
	segsSent    int
}

// NewSender builds a sender for a size-byte flow identified by tuple.
func NewSender(eng *sim.Engine, cfg Config, tuple ip.FiveTuple, size int64) *Sender {
	if cfg.MSS <= 0 {
		cfg.MSS = 1400
	}
	s := &Sender{eng: eng, cfg: cfg}
	s.rtoTimer = sim.NewTimer(eng, s.onRTO)
	s.Reset(tuple, size)
	return s
}

// Start begins transmission.
func (s *Sender) Start() { s.trySend() }

// Reset re-arms a sender for a new flow, reusing the engine binding,
// config, RTO timer and SACK scoreboard capacity. The caller must
// guarantee no scheduled callback still references the sender — the
// ran layer's flow graveyard holds retired senders past the uplink
// delay for exactly this reason. After Reset the sender's state is
// field-identical to NewSender output; only memory identity differs.
func (s *Sender) Reset(tuple ip.FiveTuple, size int64) {
	s.rtoTimer.Stop()
	*s = Sender{eng: s.eng, cfg: s.cfg, tuple: tuple, size: size, cwnd: initCwnd, ssthresh: 1 << 30,
		sacked: rangeSet{ivs: s.sacked.ivs[:0], scratch: s.sacked.scratch}, rto: initialRTO, rtoTimer: s.rtoTimer}
}

// Completed reports whether the flow has fully finished.
func (s *Sender) Completed() bool { return s.completed }

// Retransmits returns the count of retransmitted segments.
func (s *Sender) Retransmits() int { return s.retransmits }

// Timeouts returns the RTO count.
func (s *Sender) Timeouts() int { return s.timeouts }

// Cwnd returns the current congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

func (s *Sender) inflight() int64 { return s.nextSeq - s.highestAcked }

func (s *Sender) sendSegment(seq int64, isRetx bool) {
	segLen := int(min(int64(s.cfg.MSS), s.size-seq))
	if segLen <= 0 {
		return
	}
	pkt := ip.Packet{
		Tuple:      s.tuple,
		Seq:        uint32(seq),
		PayloadLen: segLen,
	}
	if isRetx {
		s.retransmits++
		if i, ok := s.slot(seq); ok {
			s.sent[i] = -1 // Karn: never sample retransmitted
		}
	} else {
		s.stampFirst(seq)
	}
	s.segsSent++
	if s.Send != nil {
		s.Send(pkt)
	}
	if !s.rtoTimer.Running() {
		s.rtoTimer.Start(s.rto)
	}
}

// slot returns the index in sent of the live segment starting at seq.
func (s *Sender) slot(seq int64) (int, bool) {
	mss := int64(s.cfg.MSS)
	if seq < s.sentFirst || (seq-s.sentFirst)%mss != 0 {
		return 0, false
	}
	i := (seq - s.sentFirst) / mss
	return s.sentHead + int(i), i < int64(len(s.sent)-s.sentHead)
}

// stampFirst appends the send time of a first transmission, which is
// always of the segment at nextSeq: the next slot. A full array whose
// acked front is at least half of it slides the live slots back to its
// start instead of growing, so a steady window reuses one array.
func (s *Sender) stampFirst(seq int64) {
	switch live := len(s.sent) - s.sentHead; {
	case live == 0:
		s.sent, s.sentHead, s.sentFirst = s.sent[:0], 0, seq
	case len(s.sent) == cap(s.sent) && s.sentHead >= live:
		s.sent = s.sent[:copy(s.sent, s.sent[s.sentHead:])]
		s.sentHead = 0
	}
	s.sent = append(s.sent, s.eng.Now())
}

// trySend sends while the window allows: new data, and in recovery
// first the holes the SACK scoreboard shows lost, with the window
// measured against pipe instead of everything unacknowledged.
func (s *Sender) trySend() {
	if s.completed {
		return
	}
	windowBytes := int64(s.cwnd * float64(s.cfg.MSS))
	for {
		inflight := s.inflight()
		if s.inRecovery {
			inflight = s.pipe()
		}
		if inflight >= windowBytes {
			return
		}
		if seq, lost := s.nextHole(); s.inRecovery && lost {
			s.retransmitHole(seq)
			continue
		}
		if s.nextSeq >= s.size {
			return
		}
		s.sendSegment(s.nextSeq, false)
		s.nextSeq += min(int64(s.cfg.MSS), s.size-s.nextSeq)
	}
}

// OnAckSACK processes an acknowledgment carrying the SACK block [lo,
// hi), or none when lo == hi. A duplicate ACK without a block was
// triggered by a duplicate segment, not by data above a hole, and says
// nothing of a loss (RFC 6675 counts only duplicate ACKs that SACK
// data): it is ignored. Without this, spurious retransmissions would
// raise the duplicate ACKs that start the next spurious recovery.
func (s *Sender) OnAckSACK(ackSeq, lo, hi int64) {
	if lo >= hi && ackSeq <= s.highestAcked {
		return
	}
	if !s.completed && s.highestAcked < lo && lo < hi && hi <= s.nextSeq {
		s.sacked.insert(interval{lo, hi})
	}
	s.OnAck(ackSeq)
}

// OnAck processes a cumulative acknowledgment up to ackSeq bytes.
//
//outran:allocfree
func (s *Sender) OnAck(ackSeq int64) {
	if s.completed {
		return
	}
	now := s.eng.Now()
	if ackSeq > s.highestAcked {
		// RTT sample from the first newly acked segment, if eligible.
		if i, ok := s.slot(s.highestAcked); ok && s.sent[i] >= 0 {
			s.sampleRTT(now - s.sent[i])
		}
		// Forget the send times of every segment below ackSeq.
		if bound := min(ackSeq, s.nextSeq); bound > s.sentFirst {
			mss := int64(s.cfg.MSS)
			k := int(min((bound-s.sentFirst+mss-1)/mss, int64(len(s.sent)-s.sentHead)))
			s.sentHead += k
			s.sentFirst += int64(k) * mss
		}
		s.highestAcked = ackSeq
		s.sacked.cut(ackSeq)
		s.dupAcks = 0
		if s.inRecovery && ackSeq >= s.recoverSeq {
			s.inRecovery = false
			s.cwnd = s.ssthresh
		} else if s.inRecovery {
			// Partial ack: the next segment is missing too, whether or
			// not anything above it was SACKed (NewReno).
			if s.highRxt <= ackSeq {
				s.retransmitHole(ackSeq)
			}
		} else if s.rtoRecover > 0 {
			if ackSeq < s.rtoRecover {
				// Timeout repair (go-back-N): keep retransmitting the
				// earliest unacked segment until the pre-timeout send
				// point is covered.
				s.sendSegment(ackSeq, true)
			} else {
				s.rtoRecover = 0
			}
		}
		if !s.inRecovery {
			if s.cwnd < s.ssthresh {
				s.cwnd++ // slow start
			} else {
				s.cwnd = s.cubic.onAck(s.cwnd, now, s.srtt)
			}
		}
		if s.highestAcked >= s.size {
			s.completed = true
			s.sent, s.sentHead, s.sentFirst = nil, 0, 0
			s.rtoTimer.Stop()
			if s.OnComplete != nil {
				s.OnComplete()
			}
			return
		}
		s.rtoTimer.Start(s.rto)
		s.trySend()
		return
	}
	// Duplicate ACK.
	s.dupAcks++
	if !s.inRecovery && s.dupAcks >= dupAckThresh {
		s.enterRecovery(now)
	} else if s.inRecovery {
		s.trySend()
	}
}

func (s *Sender) enterRecovery(now sim.Time) {
	s.inRecovery = true
	s.recoverSeq = s.nextSeq
	s.cwnd = s.cubic.onLoss(s.cwnd)
	s.ssthresh = s.cwnd
	s.highRxt = s.highestAcked
	s.retransmitHole(s.highestAcked)
}

// retransmitHole retransmits the segment at seq as the repair of a hole.
func (s *Sender) retransmitHole(seq int64) {
	s.sendSegment(seq, true)
	s.highRxt = seq + min(int64(s.cfg.MSS), s.size-seq)
}

// nextHole returns the start of the lowest hole at or above highRxt that
// lies below a SACKed range: lost, and not yet retransmitted.
func (s *Sender) nextHole() (int64, bool) {
	at := max(s.highRxt, s.highestAcked)
	for _, iv := range s.sacked.ivs {
		if at < iv.lo {
			return at, true
		}
		at = max(at, iv.hi)
	}
	return 0, false
}

// pipe is RFC 6675's estimate of the bytes in the network during
// recovery: those sent and not cumulatively acknowledged, less the
// SACKed ranges and the holes below them not yet retransmitted.
func (s *Sender) pipe() int64 {
	p, at := s.nextSeq-s.highestAcked, max(s.highRxt, s.highestAcked)
	for _, iv := range s.sacked.ivs {
		p -= iv.hi - iv.lo
		if at < iv.lo {
			p -= iv.lo - at
		}
		at = max(at, iv.hi)
	}
	return p
}

func (s *Sender) onRTO() {
	if s.completed {
		return
	}
	s.timeouts++
	s.ssthresh = max(s.cwnd/2, 2)
	s.cwnd = 1
	s.cubic.reset()
	s.inRecovery = false
	s.sacked.ivs = s.sacked.ivs[:0]
	s.dupAcks = 0
	s.rtoRecover = s.nextSeq
	s.rto = min(2*s.rto, maxRTO)
	s.sendSegment(s.highestAcked, true)
	s.rtoTimer.Start(s.rto)
}

// sampleRTT folds one sample into SRTT/RTTVAR per RFC 6298.
func (s *Sender) sampleRTT(rtt sim.Time) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = min(max(s.srtt+4*s.rttvar, minRTO), maxRTO)
}

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }
