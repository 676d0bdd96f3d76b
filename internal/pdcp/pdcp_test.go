package pdcp

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/probetest"
	"outran/internal/rlc"
	"outran/internal/sim"
)

func testPkt(dstPort uint16, seq uint32, payload int) ip.Packet {
	return ip.Packet{
		Tuple: ip.FiveTuple{
			Src: ip.AddrFrom(10, 0, 0, 1), Dst: ip.AddrFrom(10, 1, 0, 1),
			SrcPort: 443, DstPort: dstPort, Proto: ip.ProtoTCP,
		},
		Seq:        seq,
		PayloadLen: payload,
	}
}

func newPair(t *testing.T, cfg TxConfig, cls Classifier) (*sim.Engine, *Tx, *Rx, *[]ip.Packet) {
	t.Helper()
	eng := &sim.Engine{}
	var seq uint64
	tx, err := NewTx(eng, cfg, cls, &seq)
	if err != nil {
		t.Fatal(err)
	}
	var got []ip.Packet
	rx, err := NewRx(cfg, func(p ip.Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	return eng, tx, rx, &got
}

// mlfqCls adapts core.MLFQ to the Classifier interface for tests.
type mlfqCls struct{ p *core.MLFQ }

func (c mlfqCls) Classify(sent int64, _ FlowMeta) int { return c.p.PriorityFor(sent) }

func defaultCfg() TxConfig {
	return TxConfig{SNBits: 12, Key: [16]byte{1, 2, 3}, Bearer: 6}
}

func TestSubmitDeliverRoundTrip(t *testing.T) {
	_, tx, rx, got := newPair(t, defaultCfg(), nil)
	pkt := testPkt(5000, 777, 1400)
	sdu := tx.Submit(pkt, FlowMeta{FlowSize: 1400})
	if sdu == nil {
		t.Fatal("submit failed")
	}
	if sdu.PDCPSN == rlc.SNUnassigned {
		t.Fatal("immediate mode left SN unassigned")
	}
	rx.OnSDU(sdu)
	if len(*got) != 1 {
		t.Fatalf("delivered %d", len(*got))
	}
	d := (*got)[0]
	if d.Tuple != pkt.Tuple || d.Seq != pkt.Seq || d.PayloadLen != pkt.PayloadLen {
		t.Fatalf("delivered %+v, want %+v", d, pkt)
	}
	if rx.DecipherFailures() != 0 {
		t.Fatal("decipher failure on clean path")
	}
}

func TestHeaderIsActuallyCiphered(t *testing.T) {
	_, tx, _, _ := newPair(t, defaultCfg(), nil)
	pkt := testPkt(5000, 1, 100)
	sdu := tx.Submit(pkt, FlowMeta{})
	// The ciphered header must not parse as a valid packet.
	if _, err := ip.Unmarshal(sdu.Header); err == nil {
		t.Fatal("header readable without deciphering")
	}
}

func TestWrongKeyFailsDecipher(t *testing.T) {
	_, tx, _, _ := newPair(t, defaultCfg(), nil)
	badCfg := defaultCfg()
	badCfg.Key = [16]byte{9, 9, 9}
	rxBad, err := NewRx(badCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sdu := tx.Submit(testPkt(5000, 1, 100), FlowMeta{})
	rxBad.OnSDU(sdu)
	if rxBad.DecipherFailures() != 1 {
		t.Fatal("wrong key deciphered successfully")
	}
}

func TestFlowTableTracksSentBytes(t *testing.T) {
	_, tx, _, _ := newPair(t, defaultCfg(), nil)
	pkt := testPkt(5000, 0, 1000)
	tx.Submit(pkt, FlowMeta{})
	tx.Submit(pkt, FlowMeta{})
	if got := tx.SentBytes(pkt.Tuple); got != 2000 {
		t.Fatalf("sent bytes %d", got)
	}
	other := testPkt(6000, 0, 500)
	tx.Submit(other, FlowMeta{})
	if tx.FlowCount() != 2 {
		t.Fatalf("flow count %d", tx.FlowCount())
	}
	if got := tx.SentBytes(other.Tuple); got != 500 {
		t.Fatalf("other flow bytes %d", got)
	}
}

func TestClassifierTagsByPriorSentBytes(t *testing.T) {
	policy := core.MustMLFQ([]int64{1500})
	_, tx, _, _ := newPair(t, defaultCfg(), mlfqCls{policy})
	pkt := testPkt(5000, 0, 1000)
	s1 := tx.Submit(pkt, FlowMeta{})
	s2 := tx.Submit(pkt, FlowMeta{})
	s3 := tx.Submit(pkt, FlowMeta{})
	// PIAS semantics: the packet is tagged with the bytes sent BEFORE
	// it — first packet P1 (0 bytes), second P1 (1000 < 1500), third
	// P2 (2000 >= 1500).
	if s1.Priority != 0 || s2.Priority != 0 || s3.Priority != 1 {
		t.Fatalf("priorities %d,%d,%d", s1.Priority, s2.Priority, s3.Priority)
	}
}

func TestResetFlowStatesBoostsPriority(t *testing.T) {
	policy := core.MustMLFQ([]int64{500})
	_, tx, _, _ := newPair(t, defaultCfg(), mlfqCls{policy})
	pkt := testPkt(5000, 0, 1000)
	tx.Submit(pkt, FlowMeta{})
	s := tx.Submit(pkt, FlowMeta{})
	if s.Priority != 1 {
		t.Fatal("setup: expected demotion")
	}
	tx.ResetFlowStates()
	s = tx.Submit(pkt, FlowMeta{})
	if s.Priority != 0 {
		t.Fatalf("priority after reset %d, want 0", s.Priority)
	}
}

func TestDelayedSNOutOfOrderTransmissionStillDeciphers(t *testing.T) {
	cfg := defaultCfg()
	cfg.DelayedSN = true
	_, tx, rx, got := newPair(t, cfg, nil)
	// Two SDUs submitted in order A, B but transmitted B, A (the MLFQ
	// reordering). With delayed numbering, SNs follow transmission
	// order, so the receiver deciphers both.
	a := tx.Submit(testPkt(5000, 0, 100), FlowMeta{})
	b := tx.Submit(testPkt(6000, 0, 100), FlowMeta{})
	if a.PDCPSN != rlc.SNUnassigned || b.PDCPSN != rlc.SNUnassigned {
		t.Fatal("delayed mode assigned SN at ingress")
	}
	tx.AssignSN(b) // transmitted first
	tx.AssignSN(a)
	rx.OnSDU(b)
	rx.OnSDU(a)
	if len(*got) != 2 || rx.DecipherFailures() != 0 {
		t.Fatalf("delivered %d, failures %d", len(*got), rx.DecipherFailures())
	}
}

func TestImmediateSNDeepReorderingFailsDecipher(t *testing.T) {
	// The §4.4 hazard: with numbering at ingress and a small SN space,
	// holding one SDU back while many others are transmitted pushes
	// the receiver's HFN inference past the held SDU's COUNT, and its
	// deciphering fails. Delayed numbering (previous test) avoids it.
	cfg := defaultCfg()
	cfg.SNBits = 5 // window of 16
	_, tx, rx, got := newPair(t, cfg, nil)
	held := tx.Submit(testPkt(5000, 0, 100), FlowMeta{})
	for i := 0; i < 40; i++ {
		s := tx.Submit(testPkt(6000, uint32(i), 100), FlowMeta{})
		rx.OnSDU(s)
	}
	rx.OnSDU(held) // 40 SNs late: beyond the 5-bit window
	if rx.DecipherFailures() == 0 {
		t.Fatalf("deep reordering deciphered anyway (delivered %d)", len(*got))
	}
}

func TestSNWrapAroundInOrder(t *testing.T) {
	cfg := defaultCfg()
	cfg.SNBits = 5
	_, tx, rx, got := newPair(t, cfg, nil)
	// 100 packets in order across three SN wraps: all must decipher.
	for i := 0; i < 100; i++ {
		s := tx.Submit(testPkt(5000, uint32(i), 100), FlowMeta{})
		rx.OnSDU(s)
	}
	if len(*got) != 100 || rx.DecipherFailures() != 0 {
		t.Fatalf("delivered %d failures %d", len(*got), rx.DecipherFailures())
	}
}

func TestModerateReorderingWithinWindowOK(t *testing.T) {
	cfg := defaultCfg() // 12-bit SN: window 2048
	_, tx, rx, got := newPair(t, cfg, nil)
	var batch []*rlc.SDU
	for i := 0; i < 20; i++ {
		batch = append(batch, tx.Submit(testPkt(5000, uint32(i), 100), FlowMeta{}))
	}
	// Deliver in reversed order: well within the half-window.
	for i := len(batch) - 1; i >= 0; i-- {
		rx.OnSDU(batch[i])
	}
	if len(*got) != 20 || rx.DecipherFailures() != 0 {
		t.Fatalf("delivered %d failures %d", len(*got), rx.DecipherFailures())
	}
}

func TestSNBitsValidation(t *testing.T) {
	eng := &sim.Engine{}
	var seq uint64
	bad := defaultCfg()
	bad.SNBits = 3
	if _, err := NewTx(eng, bad, nil, &seq); err == nil {
		t.Fatal("SNBits=3 accepted")
	}
	bad.SNBits = 20
	if _, err := NewTx(eng, bad, nil, &seq); err == nil {
		t.Fatal("SNBits=20 accepted")
	}
}

func TestMetaPropagation(t *testing.T) {
	_, tx, _, _ := newPair(t, defaultCfg(), nil)
	meta := FlowMeta{FlowSize: 9999, QoS: true, DelayBudget: 50 * sim.Millisecond}
	s := tx.Submit(testPkt(5000, 0, 100), meta)
	if s.FlowSize != 9999 || !s.QoS || s.DelayBudget != 50*sim.Millisecond {
		t.Fatalf("meta not propagated: %+v", s)
	}
}

// TestKeystreamMatchesStdlibCTR pins the hand-rolled counter mode to
// the stdlib: for the same (key, count, bearer) the keystream must be
// byte-identical to cipher.NewCTR over the EEA2-style IV, including
// across the per-block counter increment and a ragged tail. Any
// divergence here would silently break Tx/Rx interop and same-seed
// trace identity.
func TestKeystreamMatchesStdlibCTR(t *testing.T) {
	key := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	var ctr ctrState
	for _, n := range []int{1, 15, 16, 17, 40, 127} {
		for _, count := range []uint32{0, 1, 0xfffffffe, 0xffffffff} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 7)
			}
			want := make([]byte, n)
			var iv [16]byte
			binary.BigEndian.PutUint32(iv[0:4], count)
			iv[4] = 5
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, data)
			ctr.apply(block, count, 5, data)
			if !bytes.Equal(data, want) {
				t.Fatalf("len %d count %#x: manual CTR diverges from stdlib", n, count)
			}
		}
	}
}

// cipherPair builds a delayed-SN Tx/Rx pair and one submitted SDU for
// the zero-alloc probes: DelayedSN leaves the header plaintext at
// Submit, so each probe run exercises number+cipher from a fixed COUNT.
func cipherPair(t *testing.T) (*Tx, *Rx, *rlc.SDU, []byte) {
	t.Helper()
	cfg := TxConfig{SNBits: 12, DelayedSN: true, Key: [16]byte{1}, Bearer: 3}
	eng := &sim.Engine{}
	var seq uint64
	tx, err := NewTx(eng, cfg, nil, &seq)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewRx(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sdu := tx.Submit(testPkt(8080, 0, 1000), FlowMeta{FlowSize: -1})
	if sdu == nil {
		t.Fatal("submit failed")
	}
	hdr := append([]byte(nil), sdu.Header...)
	return tx, rx, sdu, hdr
}

// TestCipherPathsZeroAlloc pins the per-SDU ciphering paths: after
// warm-up, Tx.AssignSN (number + cipher), Rx.OnSDU (decipher + parse
// + deliver) and the raw keystream core must not allocate. The probe
// registry is keyed by //outran:allocfree annotation (probetest.Run
// enforces the match).
func TestCipherPathsZeroAlloc(t *testing.T) {
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*ctrState).apply": func(t *testing.T) {
			block, err := aes.NewCipher(make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			var ctr ctrState
			data := make([]byte, 40)
			allocs := testing.AllocsPerRun(100, func() {
				ctr.apply(block, 7, 3, data)
			})
			if allocs != 0 {
				t.Errorf("apply: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Tx).AssignSN": func(t *testing.T) {
			tx, _, sdu, hdr := cipherPair(t)
			for _, hook := range []func(ip.FiveTuple, uint32){nil, func(ip.FiveTuple, uint32) {}} {
				tx.OnSNAssign = hook
				allocs := testing.AllocsPerRun(100, func() {
					copy(sdu.Header, hdr)
					tx.nextSN = 0 // keep COUNT fixed so each run ciphers identically
					tx.AssignSN(sdu)
				})
				if allocs != 0 {
					t.Errorf("AssignSN (hook %v): %.1f allocs/SDU, want 0", hook != nil, allocs)
				}
			}
		},
		"(*Rx).OnSDU": func(t *testing.T) {
			tx, rx, sdu, hdr := cipherPair(t)
			copy(sdu.Header, hdr)
			tx.nextSN = 0
			tx.AssignSN(sdu)
			for _, deliver := range []func(ip.Packet){nil, func(ip.Packet) {}} {
				rx.Deliver = deliver
				allocs := testing.AllocsPerRun(100, func() {
					rx.next = 0
					rx.OnSDU(sdu)
				})
				if allocs != 0 {
					t.Errorf("OnSDU (deliver %v): %.1f allocs/SDU, want 0", deliver != nil, allocs)
				}
			}
			if rx.DecipherFailures() > 0 {
				t.Fatalf("decipher failures: %d", rx.DecipherFailures())
			}
		},
	})
}
