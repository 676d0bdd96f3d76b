package snapshot

import (
	"testing"

	"outran/internal/probetest"
)

// TestZeroAllocs pins every //outran:allocfree method — the walker's
// fixed-width primitives, each in both directions — with an
// AllocsPerRun probe; probetest.Run fails when the probe registry and
// the annotations drift apart. Each encode probe reuses one pre-sized
// walker and truncates between runs, so the buffer's growth never fires
// during measurement; each decode probe rewinds one walker over what the
// encode wrote.
func TestZeroAllocs(t *testing.T) {
	walked := func(f func(w *Walker)) func(t *testing.T) {
		return func(t *testing.T) {
			enc := &Walker{buf: make([]byte, 0, 1024)}
			if allocs := testing.AllocsPerRun(100, func() { enc.buf = enc.buf[:0]; f(enc) }); allocs != 0 {
				t.Errorf("encode: %.1f allocs/call, want 0", allocs)
			}
			dec := &Walker{buf: enc.buf, decoding: true}
			allocs := testing.AllocsPerRun(100, func() { dec.off = 0; f(dec) })
			if allocs != 0 || dec.Err() != nil || dec.off != len(dec.buf) {
				t.Errorf("decode: %.1f allocs/call, error %v, %d bytes left; want 0, nil, 0", allocs, dec.Err(), len(dec.buf)-dec.off)
			}
		}
	}
	var (
		u8  uint8   = 0x7f
		b           = true
		u16 uint16  = 0xbeef
		u32 uint32  = 0xdeadbeef
		u64 uint64  = 1 << 60
		i64 int64   = -42
		i           = 7
		f64 float64 = 3.14159
	)
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*Walker).U8":   walked(func(w *Walker) { w.U8(&u8) }),
		"(*Walker).Bool": walked(func(w *Walker) { w.Bool(&b) }),
		"(*Walker).U16":  walked(func(w *Walker) { w.U16(&u16) }),
		"(*Walker).U32":  walked(func(w *Walker) { w.U32(&u32) }),
		"(*Walker).U64":  walked(func(w *Walker) { w.U64(&u64) }),
		"(*Walker).I64":  walked(func(w *Walker) { w.I64(&i64) }),
		"(*Walker).Int":  walked(func(w *Walker) { w.Int(&i) }),
		"(*Walker).F64":  walked(func(w *Walker) { w.F64(&f64) }),
		"(*Walker).Mark": walked(func(w *Walker) { w.Mark(0x4d01) }),
	})
}

// TestBuilderWalkAllocs: a section walked into a kept builder allocates
// nothing once the buffer has grown — the walker is the builder's own.
func TestBuilderWalkAllocs(t *testing.T) {
	var b Builder
	v := uint64(7)
	walk := func(w *Walker) { w.U64(&v) }
	build := func() {
		b.Reset()
		for range 4 {
			b.Walk("section", walk)
		}
		b.Bytes()
	}
	build()
	if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
		t.Errorf("%.1f allocs per four-section file, want 0", allocs)
	}
}

// TestArchiveWalkAllocs: decoding a section allocates nothing — the
// walker is the archive's own.
func TestArchiveWalkAllocs(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	var b Builder
	for i, name := range names {
		v := uint64(i)
		b.Walk(name, func(w *Walker) { w.U64(&v) })
	}
	a, err := Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got, sum uint64
	walk := func(w *Walker) { w.U64(&got); sum += got }
	allocs := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			if err := a.Walk(name, walk); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 || sum != 101*(0+1+2+3) {
		t.Errorf("%.1f allocs per four-section read, sum %d; want 0, %d", allocs, sum, 101*6)
	}
}
