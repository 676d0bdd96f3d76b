package ip

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func samplePacket() Packet {
	return Packet{
		Tuple: FiveTuple{
			Src:     AddrFrom(10, 0, 0, 1),
			Dst:     AddrFrom(10, 1, 0, 7),
			SrcPort: 443,
			DstPort: 50123,
			Proto:   ProtoTCP,
		},
		Seq:        123456,
		Ack:        7890,
		ACKFlag:    true,
		PayloadLen: 1400,
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, HeadersLen)
	n, err := p.Marshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != HeadersLen {
		t.Fatalf("wrote %d bytes, want %d", n, HeadersLen)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuple != p.Tuple || got.Seq != p.Seq || got.Ack != p.Ack ||
		got.ACKFlag != p.ACKFlag || got.PayloadLen != p.PayloadLen {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestMarshalShortBuffer(t *testing.T) {
	p := samplePacket()
	if _, err := p.Marshal(make([]byte, 10)); err != ErrShortPacket {
		t.Fatalf("got %v, want ErrShortPacket", err)
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, HeadersLen)
	if _, err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	// Flip one bit anywhere in the IP header: checksum must catch it.
	for i := 0; i < IPv4HeaderLen; i++ {
		c := append([]byte(nil), buf...)
		c[i] ^= 0x04
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("corruption at IP byte %d not detected", i)
		}
	}
	// Flip bits in the TCP header too.
	for i := IPv4HeaderLen; i < HeadersLen; i++ {
		c := append([]byte(nil), buf...)
		c[i] ^= 0x10
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("corruption at TCP byte %d not detected", i)
		}
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 12)); err != ErrShortPacket {
		t.Fatalf("got %v", err)
	}
}

func TestNonTCPRejected(t *testing.T) {
	p := samplePacket()
	p.Tuple.Proto = ProtoUDP
	buf := make([]byte, HeadersLen)
	if _, err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(buf); err != ErrNotTCP {
		t.Fatalf("got %v, want ErrNotTCP", err)
	}
}

func TestParseFiveTuple(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, HeadersLen)
	if _, err := p.Marshal(buf); err != nil {
		t.Fatal(err)
	}
	ft, err := ParseFiveTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if ft != p.Tuple {
		t.Fatalf("parsed %v, want %v", ft, p.Tuple)
	}
}

func TestParseFiveTupleErrors(t *testing.T) {
	if _, err := ParseFiveTuple(make([]byte, 8)); err != ErrShortPacket {
		t.Fatal("short buffer accepted")
	}
	buf := make([]byte, HeadersLen)
	buf[0] = 0x65 // IPv6 nibble
	if _, err := ParseFiveTuple(buf); err != ErrBadVersion {
		t.Fatal("bad version accepted")
	}
	// A header length other than 20 bytes, with the checksum fixed so the
	// header is otherwise valid, is refused by both decoders alike: with
	// IHL 6 the ports would lie past a 4-byte option, with IHL 0 inside
	// the IP header itself.
	p := samplePacket()
	for _, ihl := range []byte{0, 1, 4, 6, 15} {
		buf := make([]byte, HeadersLen+4*15)
		if _, err := p.Marshal(buf); err != nil {
			t.Fatal(err)
		}
		buf[0] = 0x40 | ihl
		withChecksum(buf)
		if _, err := ParseFiveTuple(buf); err != ErrBadIHL {
			t.Errorf("IHL %d: ParseFiveTuple error %v, want ErrBadIHL", ihl, err)
		}
		if _, err := Unmarshal(buf); err != ErrBadIHL {
			t.Errorf("IHL %d: Unmarshal error %v, want ErrBadIHL", ihl, err)
		}
	}
}

// withChecksum rewrites the IPv4 header checksum of buf to match its
// other header bytes.
func withChecksum(buf []byte) {
	buf[10], buf[11] = 0, 0
	binary.BigEndian.PutUint16(buf[10:12], checksum(buf[:IPv4HeaderLen]))
}

// FuzzIPHeaders: neither decoder panics on any buffer; on every buffer
// Unmarshal accepts, ParseFiveTuple returns the same tuple; and a packet
// built from the fuzzer's fields survives Marshal then Unmarshal.
func FuzzIPHeaders(f *testing.F) {
	p := samplePacket()
	buf := make([]byte, HeadersLen)
	if _, err := p.Marshal(buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf, uint64(0), uint32(0), uint32(0), uint8(0), uint16(0))
	for _, ihl := range []byte{0, 6} {
		c := append(slices.Clone(buf), make([]byte, 4)...)
		c[0] = 0x40 | ihl
		withChecksum(c)
		f.Add(c, uint64(1)<<40|443, uint32(7), uint32(9), uint8(7), uint16(1400))
	}
	f.Fuzz(func(t *testing.T, buf []byte, addrs uint64, ports, seq uint32, flags uint8, payload uint16) {
		ft, ftErr := ParseFiveTuple(buf)
		if pkt, err := Unmarshal(buf); err == nil && (ftErr != nil || ft != pkt.Tuple) {
			t.Fatalf("Unmarshal accepts %x with tuple %v; ParseFiveTuple returns %v, %v", buf, pkt.Tuple, ft, ftErr)
		}
		p := Packet{
			Tuple: FiveTuple{
				Src:     AddrFrom(byte(addrs>>56), byte(addrs>>48), byte(addrs>>40), byte(addrs>>32)),
				Dst:     AddrFrom(byte(addrs>>24), byte(addrs>>16), byte(addrs>>8), byte(addrs)),
				SrcPort: uint16(ports >> 16), DstPort: uint16(ports), Proto: ProtoTCP,
			},
			Seq: seq, Ack: ^seq,
			ACKFlag: flags&1 != 0, SYN: flags&2 != 0, FIN: flags&4 != 0,
			PayloadLen: int(payload) % (1<<16 - HeadersLen),
		}
		out := make([]byte, HeadersLen)
		if _, err := p.Marshal(out); err != nil {
			t.Fatal(err)
		}
		if got, err := Unmarshal(out); err != nil || got != p {
			t.Fatalf("Marshal then Unmarshal of %+v: %+v, %v", p, got, err)
		}
	})
}

func TestReverse(t *testing.T) {
	ft := samplePacket().Tuple
	r := ft.Reverse()
	if r.Src != ft.Dst || r.Dst != ft.Src || r.SrcPort != ft.DstPort || r.DstPort != ft.SrcPort {
		t.Fatal("Reverse wrong")
	}
	if r.Reverse() != ft {
		t.Fatal("double reverse not identity")
	}
}

func TestTupleAsMapKey(t *testing.T) {
	m := map[FiveTuple]int{}
	ft := samplePacket().Tuple
	m[ft] = 1
	ft2 := ft
	m[ft2] = 2
	if len(m) != 1 || m[ft] != 2 {
		t.Fatal("five-tuple not usable as map key")
	}
}

func TestTotalLen(t *testing.T) {
	p := samplePacket()
	if p.TotalLen() != 1440 {
		t.Fatalf("TotalLen %d", p.TotalLen())
	}
}

func TestStringFormats(t *testing.T) {
	a := AddrFrom(192, 168, 1, 2)
	if a.String() != "192.168.1.2" {
		t.Fatalf("addr string %q", a.String())
	}
	ft := samplePacket().Tuple
	if ft.String() != "10.0.0.1:443>10.1.0.7:50123/6" {
		t.Fatalf("tuple string %q", ft.String())
	}
}

// TestStringMatchesSprintf compares the strconv-append String methods
// with the fmt.Sprintf forms they replaced — the flow id is part of the
// byte-pinned event trace — over the digit-count edges of every field
// and over random tuples, and pins the single allocation.
func TestStringMatchesSprintf(t *testing.T) {
	oldAddr := func(a Addr) string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }
	oldTuple := func(ft FiveTuple) string {
		return fmt.Sprintf("%s:%d>%s:%d/%d", oldAddr(ft.Src), ft.SrcPort, oldAddr(ft.Dst), ft.DstPort, ft.Proto)
	}
	check := func(ft FiveTuple) {
		t.Helper()
		if got, want := ft.Src.String(), oldAddr(ft.Src); got != want {
			t.Fatalf("Addr.String() = %q, Sprintf form %q", got, want)
		}
		if got, want := ft.String(), oldTuple(ft); got != want {
			t.Fatalf("FiveTuple.String() = %q, Sprintf form %q", got, want)
		}
	}
	octets := []byte{0, 1, 9, 10, 99, 100, 255}
	ports := []uint16{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 65535}
	for _, o := range octets {
		for _, p := range ports {
			check(FiveTuple{Src: AddrFrom(o, 0, 255, o), Dst: AddrFrom(255, o, o, 0), SrcPort: p, DstPort: 65535 - p, Proto: o})
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var ft FiveTuple
		r.Read(ft.Src[:])
		r.Read(ft.Dst[:])
		ft.SrcPort, ft.DstPort, ft.Proto = uint16(r.Uint32()), uint16(r.Uint32()), uint8(r.Uint32())
		check(ft)
	}
	widest := FiveTuple{Src: AddrFrom(255, 255, 255, 255), Dst: AddrFrom(255, 255, 255, 255), SrcPort: 65535, DstPort: 65535, Proto: 255}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = widest.String() }); n != 1 {
		t.Errorf("FiveTuple.String() allocates %v times, want 1 (the string itself)", n)
	}
	_ = sink
}

// Property: any packet with valid field ranges survives a round trip.
func TestRoundTripProperty(t *testing.T) {
	prop := func(src, dst [4]byte, sp, dp uint16, seq, ack uint32, payload uint16, synFin uint8) bool {
		p := Packet{
			Tuple:      FiveTuple{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: ProtoTCP},
			Seq:        seq,
			Ack:        ack,
			ACKFlag:    synFin&1 != 0,
			SYN:        synFin&2 != 0,
			FIN:        synFin&4 != 0,
			PayloadLen: int(payload % 60000),
		}
		buf := make([]byte, HeadersLen)
		if _, err := p.Marshal(buf); err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return got == p
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareOrdering(t *testing.T) {
	base := samplePacket().Tuple
	if base.Compare(base) != 0 {
		t.Fatal("tuple does not compare equal to itself")
	}
	// Each case bumps one field of base upward; ordered by significance.
	bump := []func(*FiveTuple){
		func(ft *FiveTuple) { ft.Src = AddrFrom(10, 0, 0, 2) },
		func(ft *FiveTuple) { ft.Dst = AddrFrom(10, 1, 0, 8) },
		func(ft *FiveTuple) { ft.SrcPort++ },
		func(ft *FiveTuple) { ft.DstPort++ },
		func(ft *FiveTuple) { ft.Proto = ProtoUDP },
	}
	for i, f := range bump {
		hi := base
		f(&hi)
		if base.Compare(hi) != -1 || hi.Compare(base) != 1 {
			t.Errorf("case %d: Compare not antisymmetric for %v vs %v", i, base, hi)
		}
		if !base.Less(hi) || hi.Less(base) {
			t.Errorf("case %d: Less inconsistent for %v vs %v", i, base, hi)
		}
	}
	// Higher-significance fields dominate lower ones: a smaller Src
	// wins even with larger ports.
	lo := base
	hi := base
	hi.Src = AddrFrom(10, 0, 0, 9)
	lo.SrcPort = 65000
	lo.DstPort = 65000
	if !lo.Less(hi) {
		t.Error("Src must dominate port ordering")
	}
}

// byteCompare is Compare as it was written before the packed key: the
// addresses byte-wise, then the ports and the protocol.
func byteCompare(a, b FiveTuple) int {
	if c := bytes.Compare(a.Src[:], b.Src[:]); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Dst[:], b.Dst[:]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// TestCompareMatchesByteOrder: the packed key orders random tuples
// exactly as the byte-wise comparison did, its Less agrees, and it
// unpacks to the tuple it packed. Fields are drawn from small alphabets
// so that pairs often tie on a prefix and the later fields decide.
func TestCompareMatchesByteOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	octets := []byte{0, 1, 0x7f, 0x80, 0xff}
	ports := []uint16{0, 1, 0xff, 0x100, 0x7fff, 0x8000, 0xffff}
	draw := func() FiveTuple {
		var ft FiveTuple
		for i := range ft.Src {
			ft.Src[i] = octets[r.Intn(len(octets))]
			ft.Dst[i] = octets[r.Intn(len(octets))]
		}
		ft.SrcPort = ports[r.Intn(len(ports))]
		ft.DstPort = ports[r.Intn(len(ports))]
		ft.Proto = octets[r.Intn(len(octets))]
		return ft
	}
	for i := 0; i < 200000; i++ {
		a, b := draw(), draw()
		if i%4 == 0 {
			b = a
			b.Proto = octets[r.Intn(len(octets))]
		}
		want := byteCompare(a, b)
		if got := a.Compare(b); got != want {
			t.Fatalf("%v vs %v: Compare = %d, byte-wise order says %d", a, b, got, want)
		}
		if got := a.Key().Less(b.Key()); got != (want < 0) {
			t.Fatalf("%v vs %v: Key().Less = %v, byte-wise order says %d", a, b, got, want)
		}
		if back := a.Key().Tuple(); back != a {
			t.Fatalf("%v packs and unpacks to %v", a, back)
		}
	}
}

func TestSortTuplesDeterministic(t *testing.T) {
	mk := func(n int) FiveTuple {
		return FiveTuple{
			Src: AddrFrom(10, 0, byte(n>>8), byte(n)), Dst: AddrFrom(10, 1, 0, 1),
			SrcPort: 443, DstPort: uint16(10000 + n), Proto: ProtoTCP,
		}
	}
	// Two shuffled permutations of the same tuple set must sort to the
	// same sequence — the property every sorted map walk relies on.
	var fwd, rev []FiveTuple
	for i := 0; i < 64; i++ {
		fwd = append(fwd, mk(i))
		rev = append(rev, mk(63-i))
	}
	SortTuples(fwd)
	SortTuples(rev)
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("sorted orders diverge at %d: %v vs %v", i, fwd[i], rev[i])
		}
		if i > 0 && !fwd[i-1].Less(fwd[i]) {
			t.Fatalf("not strictly ascending at %d", i)
		}
	}
}
