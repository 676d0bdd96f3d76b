package transport

import (
	"testing"
	"testing/quick"

	"outran/internal/ip"
	"outran/internal/sim"
)

// pipe wires a Sender to a Receiver through a fixed-delay channel with
// programmable loss.
type pipe struct {
	eng   *sim.Engine
	s     *Sender
	r     *Receiver
	delay sim.Time
	drop  func(seq int64) bool
	sent  int
}

func newPipe(t *testing.T, size int64, cfg Config) *pipe {
	t.Helper()
	eng := &sim.Engine{}
	tuple := ip.FiveTuple{SrcPort: 443, DstPort: 1000, Proto: ip.ProtoTCP}
	p := &pipe{eng: eng, delay: 10 * sim.Millisecond}
	p.s = NewSender(eng, cfg, tuple, size)
	p.r = &Receiver{}
	p.s.Send = func(pkt ip.Packet) {
		p.sent++
		if p.drop != nil && p.drop(int64(pkt.Seq)) {
			return
		}
		seq, ln := int64(pkt.Seq), pkt.PayloadLen
		eng.After(p.delay, func() { p.r.OnData(seq, ln, eng.Now()) })
	}
	p.r.SendAck = func(ack int64) {
		eng.After(p.delay, func() { p.s.OnAck(ack) })
	}
	return p
}

func TestLosslessTransferCompletes(t *testing.T) {
	for _, size := range []int64{100, 1400, 10 * 1024, 1024 * 1024} {
		p := newPipe(t, size, Config{})
		done := false
		p.s.OnComplete = func() { done = true }
		p.s.Start()
		p.eng.RunUntil(60 * sim.Second)
		if !done {
			t.Fatalf("size %d did not complete (cumAck %d)", size, p.r.CumAck())
		}
		if p.r.CumAck() != size {
			t.Fatalf("cumAck %d != size %d", p.r.CumAck(), size)
		}
		if p.s.Retransmits() != 0 {
			t.Fatalf("lossless transfer retransmitted %d", p.s.Retransmits())
		}
	}
}

func TestShortFlowFitsInitialWindow(t *testing.T) {
	// A 10 KB flow fits in the initial window: it should finish in
	// roughly one RTT (2*delay) plus epsilon, with no waiting on acks.
	p := newPipe(t, 10*1024, Config{})
	var done sim.Time
	p.s.OnComplete = func() { done = p.eng.Now() }
	p.s.Start()
	p.eng.RunUntil(10 * sim.Second)
	if done == 0 {
		t.Fatal("did not complete")
	}
	if done > 25*sim.Millisecond {
		t.Fatalf("10 KB took %v, want ~1 RTT (20 ms)", done)
	}
}

func TestSlowStartGrowsWindow(t *testing.T) {
	p := newPipe(t, 4*1024*1024, Config{})
	p.s.Start()
	p.eng.RunUntil(300 * sim.Millisecond)
	if p.s.Cwnd() <= 10 {
		t.Fatalf("cwnd %g did not grow in slow start", p.s.Cwnd())
	}
}

func TestSingleLossFastRetransmit(t *testing.T) {
	p := newPipe(t, 512*1024, Config{})
	dropped := false
	p.drop = func(seq int64) bool {
		if !dropped && seq == 28000 {
			dropped = true
			return true
		}
		return false
	}
	done := false
	p.s.OnComplete = func() { done = true }
	p.s.Start()
	p.eng.RunUntil(60 * sim.Second)
	if !done {
		t.Fatalf("did not recover from single loss (cumAck %d)", p.r.CumAck())
	}
	if p.s.Retransmits() == 0 {
		t.Fatal("no retransmission recorded")
	}
	if p.s.Timeouts() != 0 {
		t.Fatalf("needed %d RTOs for a dupack-recoverable loss", p.s.Timeouts())
	}
}

func TestLossReducesCwnd(t *testing.T) {
	p := newPipe(t, 4*1024*1024, Config{})
	dropped := false
	p.drop = func(seq int64) bool {
		if !dropped && seq > 200000 {
			dropped = true
			return true
		}
		return false
	}
	// Sample the window after every ack; after the loss the window
	// must at some point fall below its value at the drop. (The dip
	// is momentary: NewReno-style dupack inflation re-grows it within
	// the same burst, so coarse time-based sampling would miss it.)
	// The window keeps growing between the drop and its detection one
	// RTT later, so compare the post-backoff window against the peak:
	// Cubic multiplies by beta=0.7 on a congestion event.
	maxSeen := 0.0
	backedOff := false
	p.r.SendAck = func(ack int64) {
		p.eng.After(p.delay, func() {
			p.s.OnAck(ack)
			w := p.s.Cwnd()
			if w > maxSeen {
				maxSeen = w
			}
			if dropped && w <= 0.71*maxSeen {
				backedOff = true
			}
		})
	}
	p.s.Start()
	p.eng.RunUntil(2 * sim.Second)
	if !dropped {
		t.Skip("flow too short to trigger drop point")
	}
	if !backedOff {
		t.Fatalf("window never backed off to beta x peak (peak %g)", maxSeen)
	}
}

func TestTailLossRecoversViaRTO(t *testing.T) {
	p := newPipe(t, 20*1400, Config{})
	p.drop = func(seq int64) bool { return seq == 19*1400 } // drop the last segment forever? no: only first tx
	first := true
	p.drop = func(seq int64) bool {
		if seq == 19*1400 && first {
			first = false
			return true
		}
		return false
	}
	done := false
	p.s.OnComplete = func() { done = true }
	p.s.Start()
	p.eng.RunUntil(60 * sim.Second)
	if !done {
		t.Fatal("tail loss not recovered")
	}
	if p.s.Timeouts() == 0 {
		t.Fatal("tail loss should need an RTO (no dupacks possible)")
	}
}

func TestHeavyRandomLossStillCompletes(t *testing.T) {
	p := newPipe(t, 256*1024, Config{})
	n := 0
	p.drop = func(seq int64) bool {
		n++
		return n%11 == 0 // ~9% loss
	}
	done := false
	p.s.OnComplete = func() { done = true }
	p.s.Start()
	p.eng.RunUntil(120 * sim.Second)
	if !done {
		t.Fatalf("did not complete under 9%% loss (cumAck %d/%d)", p.r.CumAck(), 256*1024)
	}
}

func TestRTTEstimate(t *testing.T) {
	p := newPipe(t, 100*1024, Config{})
	p.s.Start()
	p.eng.RunUntil(5 * sim.Second)
	srtt := p.s.SRTT()
	if srtt < 18*sim.Millisecond || srtt > 30*sim.Millisecond {
		t.Fatalf("SRTT %v for a 20 ms path", srtt)
	}
}

func TestMinRTOEnforced(t *testing.T) {
	p := newPipe(t, 100*1024, Config{})
	p.s.Start()
	p.eng.RunUntil(time2s())
	if p.s.rto < 200*sim.Millisecond {
		t.Fatalf("rto %v below MinRTO", p.s.rto)
	}
}

func time2s() sim.Time { return 2 * sim.Second }

func TestReceiverReordering(t *testing.T) {
	r := &Receiver{}
	var acks []int64
	r.SendAck = func(a int64) { acks = append(acks, a) }
	r.OnData(1400, 1400, 0) // out of order
	r.OnData(0, 1400, 0)
	r.OnData(2800, 1400, 0)
	if r.CumAck() != 4200 {
		t.Fatalf("cumAck %d", r.CumAck())
	}
	if len(acks) != 3 || acks[0] != 0 || acks[1] != 2800 || acks[2] != 4200 {
		t.Fatalf("acks %v", acks)
	}
	if r.Gaps() != 0 {
		t.Fatalf("gaps %d", r.Gaps())
	}
}

func TestReceiverDuplicateData(t *testing.T) {
	r := &Receiver{}
	r.OnData(0, 1400, 0)
	r.OnData(0, 1400, 0)
	if r.CumAck() != 1400 {
		t.Fatalf("cumAck %d after duplicate", r.CumAck())
	}
	if r.BytesReceived() != 2800 {
		t.Fatalf("raw bytes %d", r.BytesReceived())
	}
}

func TestReceiverOverlap(t *testing.T) {
	r := &Receiver{}
	r.OnData(0, 1000, 0)
	r.OnData(500, 1000, 0)
	if r.CumAck() != 1500 {
		t.Fatalf("cumAck %d after overlap", r.CumAck())
	}
}

// TestReceiverSteadyStateAllocFree: once its two interval buffers have
// grown, the receiver allocates nothing per segment: not for an
// in-order stream, not for a hole and the segment that fills it, not
// for a duplicate.
func TestReceiverSteadyStateAllocFree(t *testing.T) {
	const mss = 1400
	r := &Receiver{SendAck: func(int64) {}, OnDeliver: func(int64) {}}
	var next int64
	steps := []struct {
		name string
		step func()
	}{
		{"in order", func() { r.OnData(next, mss, 0); next += mss }},
		{"hole then fill", func() { r.OnData(next+mss, mss, 0); r.OnData(next, mss, 0); next += 2 * mss }},
		{"duplicate", func() { r.OnData(next-mss, mss, 0) }},
	}
	for _, s := range steps {
		s.step()
	}
	for _, s := range steps {
		if n := testing.AllocsPerRun(100, s.step); n != 0 {
			t.Errorf("%s: OnData allocates %v times per step, want 0", s.name, n)
		}
	}
	if r.CumAck() != next || r.Gaps() != 0 {
		t.Fatalf("cumAck %d, gaps %d after the steps; want %d, 0", r.CumAck(), r.Gaps(), next)
	}
}

// Property: for any arrival order of the segments of a flow, the
// receiver ends with cumAck == flow size and no residual gaps.
func TestReceiverPermutationProperty(t *testing.T) {
	prop := func(perm []uint8, dup uint8) bool {
		const mss, n = 100, 12
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// Fisher-Yates keyed by the fuzz input.
		for i := n - 1; i > 0; i-- {
			j := 0
			if len(perm) > 0 {
				j = int(perm[i%len(perm)]) % (i + 1)
			}
			order[i], order[j] = order[j], order[i]
		}
		r := &Receiver{}
		for _, k := range order {
			r.OnData(int64(k*mss), mss, 0)
			if dup%3 == 0 {
				r.OnData(int64(k*mss), mss, 0)
			}
		}
		return r.CumAck() == n*mss && r.Gaps() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCubicWindowEvolution(t *testing.T) {
	var c cubicState
	cwnd := 100.0
	cwnd = c.onLoss(cwnd)
	if cwnd != 70 {
		t.Fatalf("post-loss cwnd %g, want 70 (beta=0.7)", cwnd)
	}
	// Growth back toward wMax then beyond.
	now := sim.Time(0)
	srtt := 20 * sim.Millisecond
	prev := cwnd
	for i := 0; i < 2000; i++ {
		now += 10 * sim.Millisecond
		cwnd = c.onAck(cwnd, now, srtt)
		if cwnd < prev-1e-9 {
			t.Fatalf("cubic window decreased on ack at step %d", i)
		}
		prev = cwnd
	}
	if cwnd <= 100 {
		t.Fatalf("cubic did not grow past wMax: %g", cwnd)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	var c cubicState
	c.onLoss(100)      // wMax = 100
	cw := c.onLoss(80) // below wMax: fast convergence shrinks wMax
	if c.wMax >= 80 {
		t.Fatalf("fast convergence did not shrink wMax: %g", c.wMax)
	}
	if cw != 80*cubicBeta {
		t.Fatalf("post-loss cwnd %g", cw)
	}
}

func TestCubicMinWindow(t *testing.T) {
	var c cubicState
	if got := c.onLoss(1); got < 2 {
		t.Fatalf("cwnd floor violated: %g", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := NewSender(&sim.Engine{}, Config{}, ip.FiveTuple{}, 1).cfg; c.MSS != 1400 {
		t.Fatalf("defaults %+v", c)
	}
}

// TestRTOBackoffUnderOutage pins RFC 6298 exponential backoff against
// a full outage: consecutive timeout retransmissions must space out
// 1 s, 2 s, 4 s, 8 s and then stay capped at MaxRTO (8 s default, the
// cellular-bounded cap), and once the outage lifts the flow must still
// complete with a sanely regrown window.
func TestRTOBackoffUnderOutage(t *testing.T) {
	const outageEnd = 26 * sim.Second
	p := newPipe(t, 100*1024, Config{})
	var rtx0 []sim.Time // send times of the repeatedly timed-out base segment
	p.drop = func(seq int64) bool {
		if p.eng.Now() < outageEnd {
			if seq == 0 && p.eng.Now() > 0 {
				rtx0 = append(rtx0, p.eng.Now())
			}
			return true
		}
		return false
	}
	done := false
	p.s.OnComplete = func() { done = true }
	p.s.Start()
	p.eng.RunUntil(120 * sim.Second)

	// Timeout retransmissions during the outage: 1, 3, 7, 15, 23 s —
	// gaps of 1, 2, 4, 8 s (InitialRTO then doubling to the cap).
	want := []sim.Time{sim.Second, 3 * sim.Second, 7 * sim.Second, 15 * sim.Second, 23 * sim.Second}
	if len(rtx0) != len(want) {
		t.Fatalf("outage retransmissions at %v, want %v", rtx0, want)
	}
	for i := range want {
		if rtx0[i] != want[i] {
			t.Fatalf("retransmission %d at %v, want %v (backoff broken)", i, rtx0[i], want[i])
		}
	}
	// The cap: no gap may exceed MaxRTO.
	for i := 1; i < len(rtx0); i++ {
		if gap := rtx0[i] - rtx0[i-1]; gap > 8*sim.Second {
			t.Fatalf("backoff gap %v exceeds the 8 s MaxRTO cap", gap)
		}
	}
	if p.s.Timeouts() < len(want) {
		t.Fatalf("only %d timeouts recorded", p.s.Timeouts())
	}
	if !done {
		t.Fatalf("flow never completed after the outage lifted (cumAck %d)", p.r.CumAck())
	}
	if p.s.Cwnd() <= 1 {
		t.Fatalf("cwnd %g never recovered after the outage", p.s.Cwnd())
	}
}

// TestTimeoutRepairFillsBurstHole verifies the go-back-N timeout
// repair: a loss burst wider than the post-RTO window must be repaired
// segment-by-segment on new acks, not at one segment per backed-off
// RTO (which would stall a wide hole for minutes).
func TestTimeoutRepairFillsBurstHole(t *testing.T) {
	p := newPipe(t, 256*1024, Config{})
	// Drop everything in [14000, 42000) once: a 20-segment hole.
	dropped := map[int64]bool{}
	p.drop = func(seq int64) bool {
		if seq >= 14000 && seq < 42000 && !dropped[seq] {
			dropped[seq] = true
			return true
		}
		return false
	}
	var doneAt sim.Time
	p.s.OnComplete = func() { doneAt = p.eng.Now() }
	p.s.Start()
	p.eng.RunUntil(120 * sim.Second)
	if doneAt == 0 {
		t.Fatalf("did not complete (cumAck %d)", p.r.CumAck())
	}
	// One RTT per repaired hole segment (~20 ms each) plus the first
	// RTO (~1 s): far under two RTO backoffs.
	if doneAt > 10*sim.Second {
		t.Fatalf("burst-hole repair took %v — stalled in RTO-per-segment mode", doneAt)
	}
}

// TestSACKRepairsBurstInOneRoundTrip: eight consecutive segments lost
// once. With SACK blocks the sender retransmits every hole in the
// recovery's first round trip, each once, where cumulative ACKs alone
// (NewReno's partial ACKs) find one hole per round trip.
func TestSACKRepairsBurstInOneRoundTrip(t *testing.T) {
	const burst, first = 8, 100 * 1400
	repaired := func(sack bool) (sim.Time, int) {
		p := newPipe(t, 1024*1024, Config{})
		lost := map[int64]bool{}
		p.drop = func(seq int64) bool {
			if seq >= first && seq < first+burst*1400 && !lost[seq] {
				lost[seq] = true
				return true
			}
			return false
		}
		if sack {
			p.r.SendAck = nil
			p.r.SendSACK = func(ack, lo, hi int64) {
				p.eng.After(p.delay, func() { p.s.OnAckSACK(ack, lo, hi) })
			}
		}
		var at sim.Time
		p.r.OnDeliver = func(cum int64) {
			if at == 0 && cum >= first+burst*1400 {
				at = p.eng.Now()
			}
		}
		p.s.Start()
		p.eng.RunUntil(60 * sim.Second)
		if !p.s.Completed() || p.s.Timeouts() != 0 {
			t.Fatalf("SACK %v: completed %v after %d timeouts", sack, p.s.Completed(), p.s.Timeouts())
		}
		return at, p.s.Retransmits()
	}
	sackAt, sackRetx := repaired(true)
	cumAt, _ := repaired(false)
	rtt := 20 * sim.Millisecond
	if sackRetx != burst || sackAt+4*rtt > cumAt {
		t.Fatalf("burst repaired at %v with SACK (%d retransmissions), at %v with cumulative ACKs; want %d retransmissions, 4 round trips sooner",
			sackAt, sackRetx, cumAt, burst)
	}
	t.Logf("burst repaired at %v with SACK, %v with cumulative ACKs", sackAt, cumAt)
}

// TestDuplicateSegmentACKsIgnored: duplicate ACKs that SACK nothing —
// what duplicate segments raise — start no recovery; three that SACK
// data above the hole do.
func TestDuplicateSegmentACKsIgnored(t *testing.T) {
	eng := &sim.Engine{}
	s := NewSender(eng, Config{}, ip.FiveTuple{SrcPort: 443, Proto: ip.ProtoTCP}, 1<<20)
	s.Start()
	s.OnAckSACK(1400, 0, 0)
	for range 3 {
		s.OnAckSACK(1400, 0, 0)
	}
	if s.Retransmits() != 0 || s.inRecovery {
		t.Fatalf("after three duplicate ACKs with no SACK block: %d retransmissions, recovery %v; want none", s.Retransmits(), s.inRecovery)
	}
	for hi := int64(4200); hi <= 7000; hi += 1400 {
		s.OnAckSACK(1400, 2800, hi)
	}
	if s.Retransmits() != 1 || !s.inRecovery {
		t.Fatalf("after three SACKing duplicate ACKs: %d retransmissions, recovery %v; want the hole at 1400 resent", s.Retransmits(), s.inRecovery)
	}
}
