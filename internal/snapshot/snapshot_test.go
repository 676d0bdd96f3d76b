package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// encode runs walk through a fresh encoding Walker and returns what it
// wrote.
func encode(walk func(*Walker)) []byte {
	var w Walker
	walk(&w)
	return w.buf
}

// decoder returns a decoding Walker over b.
func decoder(b []byte) *Walker { return &Walker{buf: b, decoding: true} }

func TestPrimitiveRoundTrip(t *testing.T) {
	type prims struct {
		u8           uint8
		yes, no      bool
		u16          uint16
		u32          uint32
		u64          uint64
		i64          int64
		i, n         int
		pi, inf, nan float64
		raw          [3]byte
		blob         []byte
		s            string
	}
	walk := func(p *prims) func(*Walker) {
		return func(w *Walker) {
			w.U8(&p.u8)
			w.Bool(&p.yes)
			w.Bool(&p.no)
			w.U16(&p.u16)
			w.U32(&p.u32)
			w.U64(&p.u64)
			w.I64(&p.i64)
			w.Int(&p.i)
			w.F64(&p.pi)
			w.F64(&p.inf)
			w.F64(&p.nan)
			w.Raw(p.raw[:])
			w.Bytes(&p.blob)
			w.String(&p.s)
			p.n = w.Len(p.n, 10, 0)
			w.Mark(7)
		}
	}
	src := prims{u8: 0xab, yes: true, u16: 0xbeef, u32: 0xdeadbeef, u64: 0x0123456789abcdef, i64: -42, i: 1 << 40,
		pi: math.Pi, inf: math.Inf(-1), nan: math.Float64frombits(0x7ff8000000000001), // a specific NaN payload
		raw: [3]byte{1, 2, 3}, blob: []byte{4, 5}, s: "hello", n: 10}
	var dst prims
	w := decoder(encode(walk(&src)))
	if walk(&dst)(w); w.Err() != nil || w.off != len(w.buf) {
		t.Fatalf("decode error %v, %d bytes left over", w.Err(), len(w.buf)-w.off)
	}
	if got := math.Float64bits(dst.nan); got != 0x7ff8000000000001 {
		t.Fatalf("NaN payload not bit-exact: %#x", got)
	}
	src.nan, dst.nan = 0, 0
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", dst, src)
	}
}

func TestDecoderTruncationSticksNeverPanics(t *testing.T) {
	v := uint64(1)
	full := encode(func(w *Walker) { w.U64(&v) })
	for cut := 0; cut < len(full); cut++ {
		w := decoder(full[:cut])
		if w.U64(&v); v != 0 || !errors.Is(w.Err(), ErrTruncated) {
			t.Fatalf("cut=%d: read %d, err = %v, want 0 and ErrTruncated", cut, v, w.Err())
		}
		// Sticky: later reads keep the original error and zero values.
		first, u := w.Err(), uint32(7)
		if w.U32(&u); u != 0 || w.Err() != first {
			t.Fatalf("cut=%d: post-error read %d, error %v", cut, u, w.Err())
		}
	}
}

// TestFailedDecodeLeavesZeroValues: once a decode has failed — here by
// a read past the input, with bytes still left — every primitive leaves
// its zero value behind, whatever its target held, and the first error
// stands.
func TestFailedDecodeLeavesZeroValues(t *testing.T) {
	for name, zeroed := range map[string]func(w *Walker) bool{
		"U8":   func(w *Walker) bool { v := uint8(7); w.U8(&v); return v == 0 },
		"Bool": func(w *Walker) bool { v := true; w.Bool(&v); return !v },
		"U16":  func(w *Walker) bool { v := uint16(7); w.U16(&v); return v == 0 },
		"U32":  func(w *Walker) bool { v := uint32(7); w.U32(&v); return v == 0 },
		"U64":  func(w *Walker) bool { v := uint64(7); w.U64(&v); return v == 0 },
		"I64":  func(w *Walker) bool { v := int64(-7); w.I64(&v); return v == 0 },
		"Int":  func(w *Walker) bool { v := 7; w.Int(&v); return v == 0 },
		"F64":  func(w *Walker) bool { v := 0.5; w.F64(&v); return math.Float64bits(v) == 0 },
		"Mark": func(w *Walker) bool { w.Mark(7); return true },
		"Raw":  func(w *Walker) bool { b := []byte{1, 2, 3}; w.Raw(b); return bytes.Equal(b, make([]byte, 3)) },
		"Raw/16": func(w *Walker) bool {
			b := bytes.Repeat([]byte{1}, 16)
			w.Raw(b)
			return bytes.Equal(b, make([]byte, 16))
		},
		"Bytes":  func(w *Walker) bool { b := []byte{1}; w.Bytes(&b); return b == nil },
		"String": func(w *Walker) bool { s := "x"; w.String(&s); return s == "" },
		"Len":    func(w *Walker) bool { return w.Len(5, 10, 0) == 0 },
	} {
		w := decoder(bytes.Repeat([]byte{0xff}, 32))
		w.Raw(make([]byte, 33))
		first := w.Err()
		if !errors.Is(first, ErrTruncated) {
			t.Fatalf("%s: forcing the failure: %v", name, first)
		}
		if !zeroed(w) {
			t.Errorf("%s after a failed decode left a non-zero value", name)
		}
		if w.Err() != first {
			t.Errorf("%s after a failed decode: error %v, want the first, %v", name, w.Err(), first)
		}
	}
}

func TestSentinelMismatch(t *testing.T) {
	w := decoder(encode(func(w *Walker) { w.Mark(1) }))
	if w.Mark(2); !errors.Is(w.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", w.Err())
	}
}

func TestCountLimit(t *testing.T) {
	n := uint32(1 << 30)
	w := decoder(encode(func(w *Walker) { w.U32(&n) }))
	if got := w.Len(0, 100, 0); got != 0 {
		t.Fatalf("Len returned %d despite limit", got)
	}
	if !errors.Is(w.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", w.Err())
	}
}

func buildArchive(t *testing.T) []byte {
	t.Helper()
	var b Builder
	v, s := uint64(123), "cell"
	b.Walk("meta", func(w *Walker) { w.U64(&v) })
	b.Walk("cell0", func(w *Walker) { w.String(&s) })
	return b.Bytes()
}

// assemble is the file layout, written out byte by byte: magic,
// version, section count, each section's name and payload behind u32
// lengths, then the CRC.
func assemble(names []string, payloads [][]byte) []byte {
	le := binary.LittleEndian
	f := le.AppendUint32(le.AppendUint16(append([]byte(nil), magic[:]...), Version), uint32(len(names)))
	for i, name := range names {
		f = append(le.AppendUint32(f, uint32(len(name))), name...)
		f = append(le.AppendUint32(f, uint32(len(payloads[i]))), payloads[i]...)
	}
	return le.AppendUint32(f, crc32.ChecksumIEEE(f))
}

// TestBuilderMatchesAssembledFile: sections walked in place, into a
// fresh builder or one reset after an earlier file, come out as the
// file written out byte by byte — also with no sections, and when Bytes
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
			payload := make([]byte, i*i*37)
			for j := range payload {
				payload[j] = byte(j)
			}
			b.Walk(name, func(w *Walker) {
				if i%2 == 0 {
					w.Raw(payload)
					return
				}
				for j := range payload {
					w.U8(&payload[j])
				}
			})
			names, payloads = append(names, name), append(payloads, payload)
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
	var got uint64
	if err := a.Walk("meta", func(w *Walker) { w.U64(&got) }); err != nil || got != 123 {
		t.Fatalf("meta payload = %d, err %v", got, err)
	}
	if err := a.Walk("nope", func(*Walker) {}); !errors.Is(err, ErrNoSection) {
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
	v := uint64(9)
	b.Walk("only", func(w *Walker) { w.U64(&v) })
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
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// TestOpenRejectsCorruptTable: a section table that cannot be right —
// a name twice, a count over the limit or beyond the sections there,
// bytes after the last section — is refused even under a valid CRC.
func TestOpenRejectsCorruptTable(t *testing.T) {
	two := assemble([]string{"a", "b"}, [][]byte{{1}, {2}})
	const count = len(magic) + 2 // the section count's offset
	for name, tc := range map[string]struct {
		edit func([]byte) []byte
		want error
	}{
		"duplicate name":    {func(f []byte) []byte { f[count+4+14] = 'a'; return f }, ErrCorrupt},
		"count over limit":  {func(f []byte) []byte { binary.LittleEndian.PutUint32(f[count:], 1<<20+1); return f }, ErrCorrupt},
		"count beyond file": {func(f []byte) []byte { f[count] = 3; return f }, ErrTruncated},
		"trailing bytes":    {func(f []byte) []byte { return append(f[:len(f)-4], 0, 0, 0, 0, 0) }, ErrCorrupt},
	} {
		if _, err := Open(fixCRC(tc.edit(bytes.Clone(two)))); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
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
