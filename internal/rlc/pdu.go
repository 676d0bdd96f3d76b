package rlc

import (
	"errors"
	"fmt"
)

// Segment is a contiguous byte range of one SDU carried in a PDU.
type Segment struct {
	SDU    *SDU
	Offset int
	Len    int
	Last   bool // true when this segment completes the SDU
}

// PDU is one RLC protocol data unit: the unit handed to the MAC and
// transmitted as (part of) a transport block.
type PDU struct {
	SN       uint32
	Segments []Segment
	Bytes    int  // wire size including RLC headers
	Poll     bool // AM: status report requested
	Retx     bool // AM: this is a retransmission
	// SO and Whole mark an AM retransmission re-segmented to fit a grant
	// (TS 38.322 §5.3.2): it carries the original PDU's payload from
	// byte SO on, of Whole bytes in all. Whole is 0 on a whole PDU.
	SO, Whole int
}

// RLC header cost model: fixed header plus a length indicator per
// additional segment (matching UM with 10-bit SN).
const (
	pduFixedHeader   = 2
	perExtraSegment  = 2
	minUsefulPayload = 4
	soHeader         = 2 // a re-segmented retransmission's segment offset
)

// MinGrant is the smallest MAC grant that can carry any payload.
const MinGrant = pduFixedHeader + minUsefulPayload

const maxWireSN = 1<<13 - 1

// MaxSegmentLen is the largest SDU segment one PDU can carry: the wire
// header's length indicator is 16 bits, so longer segments are
// unrepresentable. buildPDU splits at this boundary and the encoders
// hard-fail on violation — a segment must never be silently truncated
// to its low 16 bits.
const MaxSegmentLen = 0xffff

// appendWireHeader is the shared allocation-free encoder: it appends
// the header for nSeg segments (lengths via segLen) to dst and returns
// the extended slice. dst's backing array is reused when capacity
// allows; callers own dst before and after. Layout:
//
//	byte 0: FI (2 bits) | E (1) | SN high 5 bits
//	byte 1: SN low 8 bits  (13-bit SN variant)
//	then per segment: 2-byte length
func appendWireHeader(dst []byte, sn uint32, firstCont, lastPartial bool, nSeg int, segLen func(int) int) ([]byte, error) {
	if sn > maxWireSN {
		// Not a steady-state allocation: cold error path; the encode loop never runs after it
		return dst, fmt.Errorf("rlc: SN %d exceeds 13-bit field", sn)
	}
	var fi byte
	if firstCont {
		fi |= 0x2
	}
	if lastPartial {
		fi |= 0x1
	}
	// Not a steady-state allocation: grows only when the caller-owned dst lacks capacity; steady-state callers reuse a sized buffer
	dst = append(dst, fi<<6|byte(sn>>8), byte(sn))
	for i := 0; i < nSeg; i++ {
		l := segLen(i)
		if l <= 0 || l > MaxSegmentLen {
			// Not a steady-state allocation: cold error path; malformed segments abort the encode
			return dst, fmt.Errorf("rlc: segment length %d out of range", l)
		}
		// Not a steady-state allocation: grows only when the caller-owned dst lacks capacity; steady-state callers reuse a sized buffer
		dst = append(dst, byte(l>>8), byte(l))
	}
	return dst, nil
}

// AppendWireHeader serialises the PDU's header exactly as it would go
// on the air, appending to dst and returning the extended slice. It
// performs no allocation when dst has capacity for the header
// (2 + 2·segments bytes); pass p.AppendWireHeader(buf[:0]) to reuse a
// caller-owned buffer across PDUs. Segments longer than MaxSegmentLen
// are a hard error, never a truncation.
//
//outran:allocfree
func (p *PDU) AppendWireHeader(dst []byte) ([]byte, error) {
	if len(p.Segments) == 0 {
		return dst, errors.New("rlc: PDU with no segments")
	}
	return appendWireHeader(dst,
		p.SN%(maxWireSN+1),
		p.Segments[0].Offset > 0,
		!p.Segments[len(p.Segments)-1].Last,
		len(p.Segments),
		// Not a steady-state allocation: non-escaping closure over p; the compiler keeps it off the heap (AllocsPerRun holds it to zero)
		func(i int) int { return p.Segments[i].Len })
}

// WireHeader is the allocating convenience form of AppendWireHeader;
// used by tests and by the overhead accounting checks.
func (p *PDU) WireHeader() ([]byte, error) {
	return p.AppendWireHeader(nil)
}

// PayloadBytes returns the SDU bytes carried (excluding headers).
func (p *PDU) PayloadBytes() int {
	n := 0
	for _, s := range p.Segments {
		n += s.Len
	}
	return n
}

// headerBytes returns the modelled header cost for nSegments.
func headerBytes(nSegments int) int {
	if nSegments <= 0 {
		return pduFixedHeader
	}
	return pduFixedHeader + perExtraSegment*(nSegments-1)
}
