package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Int(1 << 40)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.F64(math.Float64frombits(0x7ff8000000000001)) // a specific NaN payload
	e.Bytes32([]byte{1, 2, 3})
	e.String("hello")
	e.Mark(7)

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Fatalf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round-trip")
	}
	if got := d.U16(); got != 0xbeef {
		t.Fatalf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != 1<<40 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 inf = %v", got)
	}
	if got := math.Float64bits(d.F64()); got != 0x7ff8000000000001 {
		t.Fatalf("NaN payload not bit-exact: %#x", got)
	}
	if got := d.Bytes32(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Bytes32 = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	d.Expect(7)
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

func TestDecoderTruncationSticksNeverPanics(t *testing.T) {
	var e Encoder
	e.U64(1)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		_ = d.U64()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: err = %v, want ErrTruncated", cut, d.Err())
		}
		// Sticky: later reads keep the original error and zero values.
		if v := d.U32(); v != 0 {
			t.Fatalf("cut=%d: post-error read = %d", cut, v)
		}
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: error not sticky", cut)
		}
	}
}

func TestSentinelMismatch(t *testing.T) {
	var e Encoder
	e.Mark(1)
	d := NewDecoder(e.Bytes())
	d.Expect(2)
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}
}

func TestCountLimit(t *testing.T) {
	var e Encoder
	e.U32(1 << 30)
	d := NewDecoder(e.Bytes())
	if n := d.Count(100); n != 0 {
		t.Fatalf("Count returned %d despite limit", n)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}
}

func buildArchive(t *testing.T) []byte {
	t.Helper()
	var b Builder
	var s1, s2 Encoder
	s1.U64(123)
	s2.String("cell")
	b.Add("meta", &s1)
	b.Add("cell0", &s2)
	return b.Bytes()
}

// assemble is the file layout Builder writes, assembled the way it was
// before sections were encoded in place: every payload encoded on its
// own, then copied behind the header, then the CRC.
func assemble(names []string, payloads [][]byte) []byte {
	var e Encoder
	e.Raw(magic[:])
	e.U16(Version)
	e.U32(uint32(len(names)))
	for i, name := range names {
		e.String(name)
		e.Bytes32(payloads[i])
	}
	e.U32(crc32.ChecksumIEEE(e.Bytes()))
	return e.Bytes()
}

// TestBuilderMatchesAssembledFile: sections walked or added in place,
// into a fresh builder or one reset after an earlier file, come out as
// the separately assembled file — also with no sections, and when Bytes
// is asked twice.
func TestBuilderMatchesAssembledFile(t *testing.T) {
	var b Builder
	if got, want := b.Bytes(), assemble(nil, nil); !bytes.Equal(got, want) {
		t.Fatalf("empty builder wrote % x, want % x", got, want)
	}
	for round := 0; round < 3; round++ {
		b.Reset()
		var names []string
		var payloads [][]byte
		for i := 0; i <= round*4; i++ {
			name := fmt.Sprintf("s%d", i)
			var e Encoder
			for j := 0; j < i*i*37; j++ {
				e.U8(byte(j))
			}
			if i%2 == 0 {
				b.Walk(name, func(w *Walker) { w.Raw(e.Bytes()) })
			} else {
				b.Add(name, &e)
			}
			names, payloads = append(names, name), append(payloads, e.Bytes())
		}
		want := assemble(names, payloads)
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: builder wrote %d bytes, the assembled file has %d", round, len(got), len(want))
		}
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: a second Bytes differs from the first", round)
		}
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	data := buildArchive(t)
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Names(); len(n) != 2 || n[0] != "meta" || n[1] != "cell0" {
		t.Fatalf("names = %v", n)
	}
	d, err := a.Section("meta")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U64(); got != 123 {
		t.Fatalf("meta payload = %d", got)
	}
	if _, err := a.Section("nope"); !errors.Is(err, ErrNoSection) {
		t.Fatalf("missing section err = %v", err)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	data := buildArchive(t)
	data[0] ^= 0xff
	if _, err := Open(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestOpenRejectsVersionMismatch(t *testing.T) {
	data := buildArchive(t)
	data[4] = Version + 1 // little-endian u16 version lives at [4:6]
	// Fix the checksum so the version check is what fires.
	data = fixCRC(data)
	if _, err := Open(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	data := buildArchive(t)
	data[len(data)/2] ^= 0x01
	if _, err := Open(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	data := buildArchive(t)
	for _, cut := range []int{0, 3, 7, len(data) - 1} {
		_, err := Open(data[:cut])
		if err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
}

func TestOpenRejectsCorruptSectionLength(t *testing.T) {
	var b Builder
	var s Encoder
	s.U64(9)
	b.Add("only", &s)
	data := b.Bytes()
	// The section payload length prefix sits after magic(4) + ver(2) +
	// count(4) + namelen(4) + name(4). Blow it up and re-checksum so
	// only the length corruption is on trial.
	off := 4 + 2 + 4 + 4 + len("only")
	data[off] = 0xff
	data[off+1] = 0xff
	data = fixCRC(data)
	if _, err := Open(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func fixCRC(data []byte) []byte {
	body := data[:len(data)-4]
	var e Encoder
	e.Raw(body)
	e.U32(crc32.ChecksumIEEE(body))
	return e.Bytes()
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	data := buildArchive(t)
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite must also be atomic (rename over existing).
	if err := WriteFileAtomic(path, data); err != nil {
		t.Fatal(err)
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("dir has %d entries, want just the snapshot", len(ents))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}
