package rlc

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// wireHeader is the decoded form of the UM PDU header appendWireHeader
// writes, for the encode/decode round-trip; the simulator's data path
// carries the PDU struct and never decodes a header.
type wireHeader struct {
	FirstIsContinuation bool // first segment continues an SDU
	LastIsPartial       bool // last segment does not end its SDU
	SN                  uint32
	SegLens             []int
}

var errBadPDU = errors.New("rlc: malformed PDU header")

func (h *wireHeader) encode() ([]byte, error) {
	if len(h.SegLens) == 0 {
		return nil, errors.New("rlc: PDU with no segments")
	}
	buf := make([]byte, 0, 2+2*len(h.SegLens))
	buf, err := appendWireHeader(buf, h.SN, h.FirstIsContinuation, h.LastIsPartial, len(h.SegLens),
		func(i int) int { return h.SegLens[i] })
	if err != nil {
		return nil, err
	}
	return buf, nil
}

func decodeWireHeader(buf []byte) (*wireHeader, error) {
	if len(buf) < 4 || len(buf)%2 != 0 {
		return nil, errBadPDU
	}
	h := &wireHeader{
		FirstIsContinuation: buf[0]&0x80 != 0,
		LastIsPartial:       buf[0]&0x40 != 0,
		SN:                  uint32(buf[0]&0x1f)<<8 | uint32(buf[1]),
	}
	for i := 2; i < len(buf); i += 2 {
		l := int(binary.BigEndian.Uint16(buf[i:]))
		if l == 0 {
			return nil, errBadPDU
		}
		h.SegLens = append(h.SegLens, l)
	}
	return h, nil
}

func TestWireHeaderRoundTrip(t *testing.T) {
	h := wireHeader{
		FirstIsContinuation: true,
		LastIsPartial:       false,
		SN:                  1234,
		SegLens:             []int{700, 44, 1400},
	}
	buf, err := h.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWireHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FirstIsContinuation != h.FirstIsContinuation || got.LastIsPartial != h.LastIsPartial || got.SN != h.SN {
		t.Fatalf("round trip %+v vs %+v", got, h)
	}
	if len(got.SegLens) != 3 || got.SegLens[0] != 700 || got.SegLens[2] != 1400 {
		t.Fatalf("seg lens %v", got.SegLens)
	}
}

func TestWireHeaderErrors(t *testing.T) {
	if _, err := (&wireHeader{SN: maxWireSN + 1, SegLens: []int{1}}).encode(); err == nil {
		t.Error("oversized SN accepted")
	}
	if _, err := (&wireHeader{SN: 1}).encode(); err == nil {
		t.Error("empty header accepted")
	}
	if _, err := (&wireHeader{SN: 1, SegLens: []int{0}}).encode(); err == nil {
		t.Error("zero segment length accepted")
	}
	if _, err := decodeWireHeader([]byte{1, 2}); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := decodeWireHeader([]byte{0, 1, 0, 0}); err == nil {
		t.Error("zero length indicator accepted")
	}
}

func TestPDUWireHeader(t *testing.T) {
	s := mkSDU(1000, 0, 1)
	pdu := &PDU{SN: 9, Segments: []Segment{{SDU: s, Offset: 200, Len: 300}}}
	buf, err := pdu.WireHeader()
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeWireHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !h.FirstIsContinuation {
		t.Fatal("offset > 0 should mark continuation")
	}
	if !h.LastIsPartial {
		t.Fatal("non-final segment should mark partial")
	}
	if h.SN != 9 {
		t.Fatalf("SN %d", h.SN)
	}
}

func TestHeaderBytesModel(t *testing.T) {
	if headerBytes(1) != pduFixedHeader {
		t.Fatal("single-segment header cost")
	}
	if headerBytes(3) != pduFixedHeader+2*perExtraSegment {
		t.Fatal("multi-segment header cost")
	}
}

func TestPayloadBytes(t *testing.T) {
	s := mkSDU(1000, 0, 1)
	pdu := &PDU{Segments: []Segment{{SDU: s, Len: 300}, {SDU: s, Len: 200}}}
	if pdu.PayloadBytes() != 500 {
		t.Fatalf("payload %d", pdu.PayloadBytes())
	}
}

// Property: the modelled PDU size in buildPDU matches the actual wire
// header cost model for any segment structure it produces.
func TestPDUSizeMatchesModelProperty(t *testing.T) {
	prop := func(sizes []uint16, grantRaw uint16) bool {
		b := newTxBuf(TxBufConfig{Queues: 1, LimitSDUs: 64})
		for _, sz := range sizes {
			b.enqueue(mkSDU(int(sz%3000)+1, 0, 1))
		}
		grant := int(grantRaw%4000) + MinGrant
		pdu := b.buildPDU(grant, 0, nil)
		if pdu == nil {
			return true
		}
		if pdu.Bytes > grant {
			return false
		}
		return pdu.Bytes == headerBytes(len(pdu.Segments))+pdu.PayloadBytes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWireHeaderSegmentBoundary pins the 16-bit length-indicator
// boundary: a 65535-byte segment round-trips exactly, and 65536 is a
// hard encode error — never a silent truncation to the low 16 bits.
func TestWireHeaderSegmentBoundary(t *testing.T) {
	at := func(l int) (*wireHeader, []byte, error) {
		h := &wireHeader{SN: 7, SegLens: []int{l}}
		buf, err := h.encode()
		return h, buf, err
	}
	_, buf, err := at(MaxSegmentLen)
	if err != nil {
		t.Fatalf("65535-byte segment rejected: %v", err)
	}
	got, err := decodeWireHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SegLens) != 1 || got.SegLens[0] != MaxSegmentLen {
		t.Fatalf("round-trip %v, want [65535]", got.SegLens)
	}
	if _, _, err := at(MaxSegmentLen + 1); err == nil {
		t.Fatal("65536-byte segment encoded; must hard-fail")
	}
	p := &PDU{SN: 1, Segments: []Segment{{Len: MaxSegmentLen + 1, Last: true}}}
	if _, err := p.WireHeader(); err == nil {
		t.Fatal("oversized PDU segment encoded; must hard-fail")
	}
}

// TestAppendWireHeaderReuse checks the append-style encoder against
// the allocating form and that a caller-owned buffer is reused.
func TestAppendWireHeaderReuse(t *testing.T) {
	p := &PDU{SN: 42, Segments: []Segment{
		{Offset: 10, Len: 100},
		{Offset: 0, Len: 65535, Last: true},
	}}
	want, err := p.WireHeader()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	got, err := p.AppendWireHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("append encode %x != %x", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendWireHeader reallocated despite sufficient capacity")
	}
}
