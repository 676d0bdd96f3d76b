// Package pdcp implements the Packet Data Convergence Protocol entity
// of the xNodeB user plane: downlink header inspection with a
// per-flow sent-bytes table (the input to OutRAN's intra-user MLFQ,
// §4.2), sequence numbering, and AES-CTR ciphering keyed on the PDCP
// COUNT (EEA2-like). It supports both the standard numbering point
// (at PDCP ingress) and OutRAN's delayed numbering at RLC PDU build
// time (§4.4), which keeps ciphering consistent when the RLC reorders
// SDUs across flows.
package pdcp

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"outran/internal/ip"
	"outran/internal/rlc"
	"outran/internal/sim"
)

// Classifier assigns each ingress packet an intra-user queue priority,
// in [0, 2^16).
// OutRAN's classifier uses only sentBytes (information-agnostic MLFQ);
// the oracle baselines (SRJF/PSS/CQA intra-user flow ordering) read
// the flow metadata instead. A nil Classifier tags everything priority
// 0 (the legacy FIFO behaviour).
type Classifier interface {
	Classify(sentBytes int64, meta FlowMeta) int
}

// FlowMeta carries per-flow side information the simulator knows but
// OutRAN must not use: the oracle flow size for SRJF and the dedicated
// QoS profile for the PSS/CQA baselines.
type FlowMeta struct {
	FlowSize    int64 // total flow bytes; <0 unknown
	QoS         bool
	DelayBudget sim.Time
}

// ctrState is the per-entity AES-CTR scratch. The stdlib
// cipher.NewCTR allocates a stream object on every call; on the
// per-SDU ciphering path that is one garbage object per packet, so
// counter mode is implemented here directly. The keystream is
// byte-identical to cipher.NewCTR over the same IV — the full 16-byte
// IV is one big-endian counter, incremented once per AES block
// (TestKeystreamMatchesStdlibCTR pins this). The scratch lives on the
// entity struct, not the stack: slices passed through the cipher.Block
// interface escape, and struct-held arrays keep the path
// allocation-free.
type ctrState struct {
	iv [16]byte
	ks [16]byte
}

// apply XORs the EEA2-style keystream for (count, bearer) over data
// in place.
//
//outran:allocfree
func (c *ctrState) apply(block cipher.Block, count uint32, bearer uint8, data []byte) {
	binary.BigEndian.PutUint32(c.iv[0:4], count)
	c.iv[4] = bearer
	// iv[5] direction bit = 0 (downlink); rest zero.
	for i := 5; i < 16; i++ {
		c.iv[i] = 0
	}
	for off := 0; off < len(data); off += aes.BlockSize {
		block.Encrypt(c.ks[:], c.iv[:])
		n := len(data) - off
		if n > aes.BlockSize {
			n = aes.BlockSize
		}
		for j := 0; j < n; j++ {
			data[off+j] ^= c.ks[j]
		}
		for k := len(c.iv) - 1; k >= 0; k-- {
			c.iv[k]++
			if c.iv[k] != 0 {
				break
			}
		}
	}
}

// headerArenaChunk is how many SDU header buffers one arena allocation
// amortises over. Headers are retained for each SDU's lifetime, so
// they cannot be pooled outright — the arena instead folds per-packet
// allocations into one per chunk.
const headerArenaChunk = 64

// TxConfig configures a transmitting PDCP entity.
type TxConfig struct {
	// SNBits is the sequence number width (LTE UM DRBs use 7 or 12).
	SNBits int
	// DelayedSN defers numbering & ciphering to RLC PDU build (§4.4).
	DelayedSN bool
	// Key is the 16-byte ciphering key shared with the UE.
	Key [16]byte
	// Bearer identifies the radio bearer in the keystream input.
	Bearer uint8
}

// Tx is the downlink PDCP entity of one UE.
type Tx struct {
	eng        *sim.Engine
	cfg        TxConfig
	classifier Classifier
	block      cipher.Block
	nextSN     uint32
	flows      flowTable
	sduSeq     *uint64
	ctr        ctrState
	arena      []byte // header-buffer arena; see headerArenaChunk

	// OnSNAssign, when set, observes every sequence-number assignment —
	// with delayed numbering this is the moment the SDU's first byte is
	// scheduled for the air (the tracing layer's pdcp_sn event).
	OnSNAssign func(flow ip.FiveTuple, sn uint32)
	// OnLevelChange, when set, observes intra-user priority transitions
	// of a flow: the new level and the sent-bytes total that triggered
	// the reclassification (the tracing layer's mlfq event).
	OnLevelChange func(flow ip.FiveTuple, level int, sentBytes int64)

	// Stats.
	submitted  uint64
	inspectErr uint64

	// imported guards ImportFlowState against double imports.
	imported bool
}

// NewTx builds a transmitting entity. sduSeq is the cell-wide SDU id
// counter shared across UEs.
func NewTx(eng *sim.Engine, cfg TxConfig, classifier Classifier, sduSeq *uint64) (*Tx, error) {
	if cfg.SNBits < 5 || cfg.SNBits > 18 {
		return nil, fmt.Errorf("pdcp: SN width %d outside [5,18]", cfg.SNBits)
	}
	block, err := aes.NewCipher(cfg.Key[:])
	if err != nil {
		return nil, err
	}
	return &Tx{
		eng:        eng,
		cfg:        cfg,
		classifier: classifier,
		block:      block,
		sduSeq:     sduSeq,
	}, nil
}

// snMask returns the SN modulus mask.
func (t *Tx) snMask() uint32 { return 1<<uint(t.cfg.SNBits) - 1 }

// Submit performs header inspection and hands the packet to the RLC
// as an SDU. It returns the SDU (for the caller to enqueue) — nil if
// the packet could not be parsed.
func (t *Tx) Submit(pkt ip.Packet, meta FlowMeta) *rlc.SDU {
	// Serialise the real headers: this is the inspected byte buffer
	// and later the ciphered portion of the SDU. The buffer is carved
	// from the arena (full-capacity slice, so neighbours can't bleed)
	// because the SDU retains it for its lifetime.
	if len(t.arena) < ip.HeadersLen {
		t.arena = make([]byte, headerArenaChunk*ip.HeadersLen)
	}
	hdr := t.arena[0:ip.HeadersLen:ip.HeadersLen]
	t.arena = t.arena[ip.HeadersLen:]
	if _, err := pkt.Marshal(hdr); err != nil {
		t.inspectErr++
		return nil
	}
	tuple, err := ip.ParseFiveTuple(hdr)
	if err != nil {
		t.inspectErr++
		return nil
	}
	now := t.eng.Now()
	key := tuple.Key()
	fe, at := t.flows.find(key)
	if fe == nil {
		if t.flows.len() >= maxFlowEntries {
			t.flows.evictIdle(now)
			_, at = t.flows.find(key)
		}
		fe = t.flows.insert(at, key)
	}
	sent, prio := fe.sentBytes(), 0
	if t.classifier != nil {
		prio = t.classifier.Classify(sent, meta)
	}
	if uint(prio) > prioMask {
		panic(fmt.Sprintf("pdcp: classifier returned priority %d outside [0, %d]", prio, prioMask))
	}
	if prio != fe.prio() && t.OnLevelChange != nil {
		t.OnLevelChange(tuple, prio, sent)
	}
	fe.sent = uint64(sent+int64(pkt.PayloadLen))<<prioBits | uint64(prio)
	fe.lastSeen = now

	*t.sduSeq++
	sdu := &rlc.SDU{
		ID:          *t.sduSeq,
		Size:        pkt.TotalLen(),
		Priority:    prio,
		Arrival:     now,
		Flow:        tuple,
		FlowSize:    meta.FlowSize,
		QoS:         meta.QoS,
		DelayBudget: meta.DelayBudget,
		PDCPSN:      rlc.SNUnassigned,
		Header:      hdr,
		Packet:      pkt,
	}
	if !t.cfg.DelayedSN {
		t.AssignSN(sdu)
	}
	t.submitted++
	return sdu
}

// AssignSN numbers and ciphers the SDU. With DelayedSN it is handed
// to the RLC entity as its AssignSN callback so numbering happens in
// transmission order (§4.4).
//
//outran:allocfree
func (t *Tx) AssignSN(s *rlc.SDU) {
	sn := t.nextSN & t.snMask()
	count := t.nextSN // full COUNT, monotonically increasing
	t.nextSN++
	s.PDCPSN = sn
	t.applyKeystream(count, s.Header)
	if t.OnSNAssign != nil {
		t.OnSNAssign(s.Flow, sn)
	}
}

// applyKeystream XORs the EEA2-style AES-CTR keystream for the given
// COUNT over data.
func (t *Tx) applyKeystream(count uint32, data []byte) {
	t.ctr.apply(t.block, count, t.cfg.Bearer, data)
}

// ResetFlowStates zeroes every flow's sent-bytes, boosting all flows
// back to the top MLFQ priority (§6.3 "priority reset").
func (t *Tx) ResetFlowStates() {
	t.flows.each(func(fe *flowEntry) { fe.sent &= prioMask })
}

// FlowCount returns the number of tracked flows.
func (t *Tx) FlowCount() int { return t.flows.len() }

// FlowTuples returns the tracked flow five-tuples in canonical order —
// the same order ExportFlowState emits records in.
func (t *Tx) FlowTuples() []ip.FiveTuple {
	out := make([]ip.FiveTuple, 0, t.flows.len())
	t.flows.each(func(fe *flowEntry) { out = append(out, fe.key.Tuple()) })
	return out
}

// SentBytes returns the tracked sent-bytes of a flow (testing/metrics).
func (t *Tx) SentBytes(tuple ip.FiveTuple) int64 {
	if fe, _ := t.flows.find(tuple.Key()); fe != nil {
		return fe.sentBytes()
	}
	return 0
}

// Rx is the receiving PDCP entity at the UE. It infers the full COUNT
// from the PDU's truncated SN using the standard half-window rule; a
// wrong inference (reordering beyond the SN window, exactly the hazard
// §4.4 describes for un-delayed numbering) deciphers to garbage, which
// the IP checksum catches and the packet is dropped.
type Rx struct {
	cfg     TxConfig
	block   cipher.Block
	next    uint32 // expected next COUNT
	Deliver func(ip.Packet)

	ctr ctrState
	hdr []byte // decipher scratch, reused across OnSDU calls

	delivered    uint64
	decipherFail uint64
}

// NewRx builds the UE-side receiving entity. Config must match Tx.
func NewRx(cfg TxConfig, deliver func(ip.Packet)) (*Rx, error) {
	block, err := aes.NewCipher(cfg.Key[:])
	if err != nil {
		return nil, err
	}
	return &Rx{cfg: cfg, block: block, Deliver: deliver}, nil
}

// inferCount maps a received SN to the COUNT closest to the expected
// next COUNT (half-window HFN inference).
func (r *Rx) inferCount(sn uint32) uint32 {
	bits := uint(r.cfg.SNBits)
	mod := uint32(1) << bits
	half := mod >> 1
	expSN := r.next & (mod - 1)
	hfn := r.next >> bits
	var count uint32
	switch {
	case sn >= expSN && sn-expSN < half:
		count = hfn<<bits | sn
	case sn < expSN && expSN-sn > half:
		count = (hfn+1)<<bits | sn // wrapped forward
	default:
		// sn behind expected: same HFN if possible, else previous.
		if sn <= expSN {
			count = hfn<<bits | sn
		} else if hfn > 0 {
			count = (hfn-1)<<bits | sn
		} else {
			count = sn
		}
	}
	return count
}

// OnSDU processes one reassembled PDCP PDU delivered by the RLC. The
// decipher buffer is entity-owned scratch (the parsed ip.Packet is a
// value and retains nothing), so the per-SDU receive path does not
// allocate.
//
//outran:allocfree
func (r *Rx) OnSDU(s *rlc.SDU) {
	count := r.inferCount(s.PDCPSN)
	if cap(r.hdr) < len(s.Header) {
		// Not a steady-state allocation: capacity-guarded scratch growth; header sizes are fixed per config
		r.hdr = make([]byte, len(s.Header))
	}
	hdr := r.hdr[:len(s.Header)]
	copy(hdr, s.Header)
	r.ctr.apply(r.block, count, r.cfg.Bearer, hdr)
	pkt, err := ip.Unmarshal(hdr)
	if err != nil {
		r.decipherFail++
		return
	}
	if count >= r.next {
		r.next = count + 1
	}
	r.delivered++
	if r.Deliver != nil {
		r.Deliver(pkt)
	}
}

// Delivered returns successfully deciphered and delivered packets.
func (r *Rx) Delivered() uint64 { return r.delivered }

// DecipherFailures returns packets dropped due to COUNT mismatch.
func (r *Rx) DecipherFailures() uint64 { return r.decipherFail }
