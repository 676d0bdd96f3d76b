package snapshot

import (
	"testing"

	"outran/internal/probetest"
)

// TestZeroAllocs pins every //outran:allocfree helper — the encoder's,
// and the walker's fixed-width methods in both directions — with an
// AllocsPerRun probe; probetest.Run fails when the probe registry and
// the annotations drift apart. Each encode probe reuses one pre-sized
// encoder and truncates between runs, so the encoder's amortized append
// growth never fires during measurement; each decode probe rewinds one
// decoder over what the encode wrote.
func TestZeroAllocs(t *testing.T) {
	fixed := func(f func(e *Encoder)) func(t *testing.T) {
		return func(t *testing.T) {
			e := &Encoder{buf: make([]byte, 0, 1024)}
			allocs := testing.AllocsPerRun(100, func() {
				e.buf = e.buf[:0]
				f(e)
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs/call, want 0", allocs)
			}
		}
	}
	walked := func(f func(w *Walker)) func(t *testing.T) {
		return func(t *testing.T) {
			fixed(func(e *Encoder) { f(&Walker{enc: e}) })(t)
			e := &Encoder{}
			f(&Walker{enc: e})
			d := NewDecoder(e.buf)
			w := &Walker{dec: d}
			allocs := testing.AllocsPerRun(100, func() {
				d.off = 0
				f(w)
			})
			if allocs != 0 || d.Err() != nil || d.Remaining() != 0 {
				t.Errorf("decode: %.1f allocs/call, error %v, %d bytes left; want 0, nil, 0", allocs, d.Err(), d.Remaining())
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

		"(*Encoder).U8":   fixed(func(e *Encoder) { e.U8(0x7f) }),
		"(*Encoder).Bool": fixed(func(e *Encoder) { e.Bool(true); e.Bool(false) }),
		"(*Encoder).U16":  fixed(func(e *Encoder) { e.U16(0xbeef) }),
		"(*Encoder).U32":  fixed(func(e *Encoder) { e.U32(0xdeadbeef) }),
		"(*Encoder).U64":  fixed(func(e *Encoder) { e.U64(1 << 60) }),
		"(*Encoder).I64":  fixed(func(e *Encoder) { e.I64(-42) }),
		"(*Encoder).Int":  fixed(func(e *Encoder) { e.Int(7) }),
		"(*Encoder).F64":  fixed(func(e *Encoder) { e.F64(3.14159) }),
		"(*Encoder).Mark": fixed(func(e *Encoder) { e.Mark(0x4d01) }),
	})
}
