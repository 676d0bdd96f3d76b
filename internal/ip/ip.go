// Package ip implements the minimal IPv4 and TCP header handling the
// base station's user plane needs: serialising downlink packets into
// real header bytes and parsing the five-tuple back out at the PDCP
// ingress (header inspection, §4.2 of the paper). Checksums are
// computed and verified so the encode/decode paths are honest.
package ip

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"strconv"
)

// Protocol numbers used by the simulator.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Addr is an IPv4 address.
type Addr [4]byte

// AddrFrom builds an address from four octets.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

func (a Addr) String() string {
	var buf [15]byte
	return string(a.appendTo(buf[:0]))
}

// appendTo appends the dotted-quad form of a to dst.
func (a Addr) appendTo(dst []byte) []byte {
	for i, octet := range a {
		if i > 0 {
			dst = append(dst, '.')
		}
		dst = strconv.AppendUint(dst, uint64(octet), 10)
	}
	return dst
}

// FiveTuple identifies a transport flow. It is comparable and usable
// as a map key (the flow-table key of the intra-user scheduler).
type FiveTuple struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// String formats the tuple as "src:port>dst:port/proto" — the flow id
// of the event trace, built once per flow-tagged event, hence without
// fmt.
func (ft FiveTuple) String() string {
	var buf [len("255.255.255.255:65535>255.255.255.255:65535/255")]byte
	b := ft.Src.appendTo(buf[:0])
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(ft.SrcPort), 10)
	b = append(b, '>')
	b = ft.Dst.appendTo(b)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(ft.DstPort), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(ft.Proto), 10)
	return string(b)
}

// TupleKey is a five-tuple packed into two words, Src‖Dst and
// SrcPort‖DstPort‖Proto, both big-endian, so that the unsigned order of
// (Hi, Lo) is Compare's: a table ordered by tuple compares two integers
// per probe instead of walking bytes.
type TupleKey struct{ Hi, Lo uint64 }

// Key packs the tuple (see TupleKey).
func (ft FiveTuple) Key() TupleKey {
	return TupleKey{
		Hi: uint64(binary.BigEndian.Uint32(ft.Src[:]))<<32 | uint64(binary.BigEndian.Uint32(ft.Dst[:])),
		Lo: uint64(ft.SrcPort)<<24 | uint64(ft.DstPort)<<8 | uint64(ft.Proto),
	}
}

// Tuple unpacks the key. Bits of Lo above the 40 a tuple fills are
// dropped.
func (k TupleKey) Tuple() FiveTuple {
	var ft FiveTuple
	binary.BigEndian.PutUint32(ft.Src[:], uint32(k.Hi>>32))
	binary.BigEndian.PutUint32(ft.Dst[:], uint32(k.Hi))
	ft.SrcPort = uint16(k.Lo >> 24)
	ft.DstPort = uint16(k.Lo >> 8)
	ft.Proto = uint8(k.Lo)
	return ft
}

// Less reports whether k orders before o.
func (k TupleKey) Less(o TupleKey) bool {
	return k.Hi < o.Hi || k.Hi == o.Hi && k.Lo < o.Lo
}

// Compare orders five-tuples canonically — lexicographically by
// (Src, Dst, SrcPort, DstPort, Proto) — returning -1, 0 or +1. This is
// the iteration order every flow-table walk in the simulator uses so
// that same-seed runs visit flows identically (map order is
// randomized by the runtime, and the same-seed digests catch a walk
// that leaks it).
func (ft FiveTuple) Compare(o FiveTuple) int {
	a, b := ft.Key(), o.Key()
	if c := cmp.Compare(a.Hi, b.Hi); c != 0 {
		return c
	}
	return cmp.Compare(a.Lo, b.Lo)
}

// Less reports whether ft orders before o (see Compare).
func (ft FiveTuple) Less(o FiveTuple) bool { return ft.Compare(o) < 0 }

// SortTuples sorts tuples into canonical Compare order in place.
func SortTuples(tuples []FiveTuple) {
	slices.SortFunc(tuples, FiveTuple.Compare)
}

// Reverse returns the tuple of the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Src: ft.Dst, Dst: ft.Src, SrcPort: ft.DstPort, DstPort: ft.SrcPort, Proto: ft.Proto}
}

// Header sizes.
const (
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20
	HeadersLen    = IPv4HeaderLen + TCPHeaderLen
)

// Packet is a downlink or uplink transport segment. PayloadLen stands
// in for the payload bytes themselves: the simulator tracks sizes, not
// content, but headers are real bytes.
type Packet struct {
	Tuple      FiveTuple
	Seq        uint32 // TCP sequence number (byte offset)
	Ack        uint32 // cumulative ACK number
	ACKFlag    bool
	SYN, FIN   bool
	PayloadLen int
}

// TotalLen returns the on-the-wire length including headers.
func (p *Packet) TotalLen() int { return HeadersLen + p.PayloadLen }

var (
	// ErrShortPacket reports a buffer too small to hold the headers.
	ErrShortPacket = errors.New("ip: buffer shorter than IPv4+TCP headers")
	// ErrBadChecksum reports a failed checksum verification.
	ErrBadChecksum = errors.New("ip: checksum mismatch")
	// ErrNotTCP reports a non-TCP protocol field where TCP was required.
	ErrNotTCP = errors.New("ip: not a TCP packet")
	// ErrBadVersion reports a non-IPv4 version nibble.
	ErrBadVersion = errors.New("ip: not IPv4")
	// ErrBadIHL reports an IPv4 header length other than the 20 bytes
	// Marshal writes: options are not decoded, and both decoders read
	// the TCP header at that fixed offset.
	ErrBadIHL = errors.New("ip: IPv4 header length is not 20 bytes")
)

// checkHeader is the check both decoders make before reading a field:
// buf holds the headers, the version nibble says IPv4 and the IHL says
// a 20-byte IPv4 header.
func checkHeader(buf []byte) error {
	switch {
	case len(buf) < HeadersLen:
		return ErrShortPacket
	case buf[0]>>4 != 4:
		return ErrBadVersion
	case buf[0]&0x0f != IPv4HeaderLen/4:
		return ErrBadIHL
	}
	return nil
}

// Marshal serialises the IPv4+TCP headers into buf, which must be at
// least HeadersLen bytes. It returns the number of header bytes
// written. The payload itself is not written; the IPv4 total-length
// field accounts for it.
func (p *Packet) Marshal(buf []byte) (int, error) {
	if len(buf) < HeadersLen {
		return 0, ErrShortPacket
	}
	ipb := buf[:IPv4HeaderLen]
	ipb[0] = 0x45 // v4, IHL 5
	ipb[1] = 0
	binary.BigEndian.PutUint16(ipb[2:4], uint16(IPv4HeaderLen+TCPHeaderLen+p.PayloadLen))
	binary.BigEndian.PutUint16(ipb[4:6], 0)      // ident
	binary.BigEndian.PutUint16(ipb[6:8], 0x4000) // DF
	ipb[8] = 64                                  // TTL
	ipb[9] = p.Tuple.Proto
	binary.BigEndian.PutUint16(ipb[10:12], 0) // checksum placeholder
	copy(ipb[12:16], p.Tuple.Src[:])
	copy(ipb[16:20], p.Tuple.Dst[:])
	binary.BigEndian.PutUint16(ipb[10:12], checksum(ipb))

	tcp := buf[IPv4HeaderLen:HeadersLen]
	binary.BigEndian.PutUint16(tcp[0:2], p.Tuple.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:4], p.Tuple.DstPort)
	binary.BigEndian.PutUint32(tcp[4:8], p.Seq)
	binary.BigEndian.PutUint32(tcp[8:12], p.Ack)
	tcp[12] = 5 << 4 // data offset 5 words
	var flags byte
	if p.FIN {
		flags |= 0x01
	}
	if p.SYN {
		flags |= 0x02
	}
	if p.ACKFlag {
		flags |= 0x10
	}
	tcp[13] = flags
	binary.BigEndian.PutUint16(tcp[14:16], 65535) // window
	binary.BigEndian.PutUint16(tcp[16:18], 0)     // checksum placeholder
	binary.BigEndian.PutUint16(tcp[18:20], 0)     // urgent
	binary.BigEndian.PutUint16(tcp[16:18], tcpChecksum(p.Tuple, tcp, p.PayloadLen))
	return HeadersLen, nil
}

// Unmarshal parses and verifies the IPv4+TCP headers in buf.
func Unmarshal(buf []byte) (Packet, error) {
	var p Packet
	if err := checkHeader(buf); err != nil {
		return p, err
	}
	ipb := buf[:IPv4HeaderLen]
	if checksum(ipb) != 0 {
		return p, ErrBadChecksum
	}
	p.Tuple.Proto = ipb[9]
	copy(p.Tuple.Src[:], ipb[12:16])
	copy(p.Tuple.Dst[:], ipb[16:20])
	total := int(binary.BigEndian.Uint16(ipb[2:4]))
	if p.Tuple.Proto != ProtoTCP {
		return p, ErrNotTCP
	}
	tcp := buf[IPv4HeaderLen:HeadersLen]
	p.Tuple.SrcPort = binary.BigEndian.Uint16(tcp[0:2])
	p.Tuple.DstPort = binary.BigEndian.Uint16(tcp[2:4])
	p.Seq = binary.BigEndian.Uint32(tcp[4:8])
	p.Ack = binary.BigEndian.Uint32(tcp[8:12])
	p.FIN = tcp[13]&0x01 != 0
	p.SYN = tcp[13]&0x02 != 0
	p.ACKFlag = tcp[13]&0x10 != 0
	p.PayloadLen = total - HeadersLen
	if p.PayloadLen < 0 {
		return p, ErrShortPacket
	}
	if tcpChecksum(p.Tuple, tcp, p.PayloadLen) != 0 {
		return p, ErrBadChecksum
	}
	return p, nil
}

// ParseFiveTuple extracts just the five-tuple without verifying
// checksums; on any buffer Unmarshal accepts it returns Unmarshal's
// tuple. This is the hot path of the PDCP header inspection; it
// touches only the fields it needs, mirroring how a production
// classifier avoids full reassembly.
func ParseFiveTuple(buf []byte) (FiveTuple, error) {
	var ft FiveTuple
	if err := checkHeader(buf); err != nil {
		return ft, err
	}
	ft.Proto = buf[9]
	copy(ft.Src[:], buf[12:16])
	copy(ft.Dst[:], buf[16:20])
	ft.SrcPort = binary.BigEndian.Uint16(buf[IPv4HeaderLen : IPv4HeaderLen+2])
	ft.DstPort = binary.BigEndian.Uint16(buf[IPv4HeaderLen+2 : IPv4HeaderLen+4])
	return ft, nil
}

// checksum is the Internet checksum over b (with the checksum field
// included; a correct header sums to 0).
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// tcpChecksum computes the TCP checksum over the pseudo-header and the
// TCP header. The payload is simulated (all-zero), so it contributes
// nothing to the sum and honesty is preserved for any PayloadLen.
func tcpChecksum(ft FiveTuple, tcp []byte, payloadLen int) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], ft.Src[:])
	copy(pseudo[4:8], ft.Dst[:])
	pseudo[9] = ft.Proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(TCPHeaderLen+payloadLen))
	var sum uint32
	// Not a steady-state allocation: non-escaping local closure; the compiler keeps it (and sum) on the stack
	add := func(b []byte) {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
		}
		if len(b)%2 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
	}
	add(pseudo[:])
	add(tcp)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
