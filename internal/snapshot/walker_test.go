package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
)

// record exercises every walker method and helper once.
type record struct {
	u8    uint8
	b     bool
	u16   uint16
	u32   uint32
	u64   uint64
	i64   int64
	i     int
	f     float64
	raw   [3]byte
	blob  []byte
	empty []byte
	s     string
	when  duration
	list  []int
	none  []int
	fixed []uint32
	table map[string]float64
}

type duration int64

func (r *record) walk(w *Walker) {
	w.Mark(0x77)
	Same(w, w.Int, len(r.fixed), "fixed entries (again)")
	w.U8(&r.u8)
	w.Bool(&r.b)
	w.U16(&r.u16)
	w.U32(&r.u32)
	w.U64(&r.u64)
	w.I64(&r.i64)
	w.Int(&r.i)
	w.F64(&r.f)
	w.Raw(r.raw[:])
	w.Bytes(&r.blob)
	w.Bytes(&r.empty)
	w.String(&r.s)
	I64(w, &r.when)
	Slice(w, &r.list, 1<<10, 8, w.Int)
	Slice(w, &r.none, 1<<10, 8, w.Int)
	if w.FixedLen(len(r.fixed), 1<<10, "fixed entries") {
		for i := range r.fixed {
			w.U32(&r.fixed[i])
		}
	}
	Map(w, r.table, 1<<10, 4+8, slices.Sort, func(k *string, v *float64) {
		w.String(k)
		w.F64(v)
	})
}

// TestWalkerRoundTrip: one walk, run as an encoder, writes exactly the
// layout its calls stand for, and run as a decoder reads it all back —
// maps in key order, empty slices as nil.
func TestWalkerRoundTrip(t *testing.T) {
	src := record{
		u8: 0xab, b: true, u16: 0xbeef, u32: 0xdeadbeef, u64: 1 << 60, i64: -42, i: 1 << 40,
		f: math.Float64frombits(0x7ff8000000000001), raw: [3]byte{1, 2, 3}, blob: []byte{9, 8},
		empty: []byte{}, s: "hello", when: -7, list: []int{3, 1, 2}, fixed: []uint32{5, 6},
		table: map[string]float64{"b": 2, "a": 1, "c": 3},
	}
	img := encode(src.walk)

	le := binary.LittleEndian
	u64 := func(b []byte, v uint64) []byte { return le.AppendUint64(b, v) }
	str := func(b []byte, s string) []byte { return append(le.AppendUint32(b, uint32(len(s))), s...) }
	want := le.AppendUint32(nil, 0x77^0x5eed5eed) // the Mark
	want = u64(want, 2)                           // Same: len(fixed)
	want = le.AppendUint16(append(want, 0xab, 1), 0xbeef)
	want = le.AppendUint32(want, 0xdeadbeef)
	want = u64(u64(u64(u64(want, 1<<60), uint64(1<<64-42)), 1<<40), math.Float64bits(src.f))
	want = append(want, 1, 2, 3)                        // Raw
	want = str(str(str(want, "\x09\x08"), ""), "hello") // blob, empty, s
	want = u64(want, uint64(1<<64-7))                   // when
	want = u64(u64(u64(le.AppendUint32(want, 3), 3), 1), 2)
	want = le.AppendUint32(want, 0) // none
	want = le.AppendUint32(le.AppendUint32(le.AppendUint32(want, 2), 5), 6)
	want = le.AppendUint32(want, 3)
	for _, k := range []string{"a", "b", "c"} {
		want = u64(str(want, k), math.Float64bits(src.table[k]))
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("walk encoded\n % x\nthe layout its calls stand for is\n % x", img, want)
	}

	dst := record{fixed: make([]uint32, 2), table: map[string]float64{}}
	w := decoder(img)
	if dst.walk(w); w.Err() != nil || w.off != len(img) {
		t.Fatalf("decode: err %v, %d bytes left", w.Err(), len(img)-w.off)
	}
	if math.Float64bits(dst.f) != math.Float64bits(src.f) {
		t.Fatalf("NaN payload not bit-exact: %#x", math.Float64bits(dst.f))
	}
	src.f, dst.f = 0, 0
	src.empty = nil // an empty slice decodes as nil
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", dst, src)
	}

	// The same bytes into a target of another geometry.
	other := record{fixed: make([]uint32, 3), table: map[string]float64{}}
	w = decoder(img)
	if other.walk(w); !errors.Is(w.Err(), ErrCorrupt) {
		t.Fatalf("fixed-length mismatch: err %v, want ErrCorrupt", w.Err())
	}
}

// TestLenBoundedByInput: a count is checked against its limit and
// against the bytes that are there, before anything is sized from it,
// and a failed walk iterates nothing.
func TestLenBoundedByInput(t *testing.T) {
	for name, tc := range map[string]struct {
		count uint32
		tail  int
		want  error
	}{
		"over the limit":    {count: 1 << 11, tail: 8 << 11, want: ErrCorrupt},
		"beyond the input":  {count: 1 << 10, tail: 8<<10 - 1, want: ErrTruncated},
		"exactly the input": {count: 1 << 10, tail: 8 << 10},
	} {
		w := decoder(binary.LittleEndian.AppendUint32(nil, tc.count))
		w.buf = append(w.buf, make([]byte, tc.tail)...)
		n := w.Len(0, 1<<10, 8)
		if !errors.Is(w.Err(), tc.want) || (tc.want != nil && n != 0) || (tc.want == nil && n != 1<<10) {
			t.Errorf("%s: Len = %d, err %v; want err %v", name, n, w.Err(), tc.want)
		}
	}
	w := decoder(binary.LittleEndian.AppendUint32(nil, 1<<20))
	var s []float64
	calls := 0
	Slice(w, &s, 1<<28, 8, func(*float64) { calls++ })
	if !errors.Is(w.Err(), ErrTruncated) || s != nil || calls != 0 {
		t.Fatalf("Slice over a count with no payload: err %v, %d elements, %d element walks", w.Err(), len(s), calls)
	}
}

// TestSectionWalk: the section helper names the section in every error —
// missing, failed mid-walk, bytes left over — and a walk that fails
// while encoding is a bug, reported as a panic.
func TestSectionWalk(t *testing.T) {
	var b Builder
	v := uint64(42)
	b.Walk("meta", func(w *Walker) { w.U64(&v) })
	a, err := Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := a.Walk("meta", func(w *Walker) { w.U64(&got) }); err != nil || got != 42 {
		t.Fatalf("walk read %d, err %v", got, err)
	}
	if err := a.Walk("absent", func(*Walker) {}); !errors.Is(err, ErrNoSection) {
		t.Fatalf("missing section: %v, want ErrNoSection", err)
	}
	var half uint32
	if err := a.Walk("meta", func(w *Walker) { w.U32(&half) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v, want ErrCorrupt", err)
	}
	if err := a.Walk("meta", func(w *Walker) { w.U64(&got); w.U64(&got) }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short section: %v, want ErrTruncated", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fail while encoding did not panic")
		}
	}()
	b.Walk("bug", func(w *Walker) { w.Fail(errors.New("cannot write this")) })
}
