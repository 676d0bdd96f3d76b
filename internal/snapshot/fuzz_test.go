package snapshot

import (
	"bytes"
	"testing"
)

// FuzzOpen throws arbitrary bytes at the archive parser: it must
// either reject with an error or yield an archive that re-serialises
// losslessly — and it must never panic.
func FuzzOpen(f *testing.F) {
	var b Builder
	u, x, s := uint64(42), 3.5, "state"
	b.Walk("meta", func(w *Walker) { w.U64(&u); w.F64(&x) })
	b.Walk("cell0", func(w *Walker) { w.String(&s) })
	f.Add(b.Bytes())
	f.Add([]byte{})
	f.Add([]byte("OSNP"))
	f.Add([]byte("OSNP\x01\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Open(data)
		if err != nil {
			return
		}
		// Accepted input must round-trip: rebuild from the parsed
		// sections and reparse to the same content.
		var rb Builder
		for _, name := range a.Names() {
			rb.Walk(name, func(w *Walker) { w.Raw(a.sections[name]) })
		}
		a2, err := Open(rb.Bytes())
		if err != nil {
			t.Fatalf("re-encoded archive rejected: %v", err)
		}
		if len(a2.Names()) != len(a.Names()) {
			t.Fatalf("section count changed: %d -> %d", len(a.Names()), len(a2.Names()))
		}
		for _, name := range a.Names() {
			if !bytes.Equal(a.sections[name], a2.sections[name]) {
				t.Fatalf("section %q payload changed", name)
			}
		}
	})
}

// FuzzDecoder drives a decoding Walker through every primitive, Len,
// Bytes and String over arbitrary input, past its end: no sequence of
// reads may panic, and the first error must stick.
func FuzzDecoder(f *testing.F) {
	f.Add(encode(func(w *Walker) {
		u8, u64, s := uint8(1), uint64(2), "x"
		w.U8(&u8)
		w.U64(&u64)
		w.String(&s)
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		w := decoder(data)
		var (
			u8    uint8
			b     bool
			u16   uint16
			u32   uint32
			u64   uint64
			i64   int64
			i     int
			f64   float64
			raw   [3]byte
			bytes []byte
			s     string
			first error
		)
		const ops = 13
		// Every op reads at least a byte, so the walk fails within
		// len(data)+1 steps and then runs every op at least once more.
		for step := 0; step < len(data)+1+2*ops; step++ {
			switch (step + w.off) % ops {
			case 0:
				w.U8(&u8)
			case 1:
				w.Bool(&b)
			case 2:
				w.U16(&u16)
			case 3:
				w.U32(&u32)
			case 4:
				w.U64(&u64)
			case 5:
				w.I64(&i64)
			case 6:
				w.Int(&i)
			case 7:
				w.F64(&f64)
			case 8:
				w.Mark(uint32(step))
			case 9:
				w.Raw(raw[:])
			case 10:
				w.Bytes(&bytes)
			case 11:
				w.String(&s)
			default:
				w.Len(0, 1<<16, 1)
			}
			if first == nil {
				first = w.Err()
			} else if w.Err() != first {
				t.Fatalf("step %d: error %v replaced the first, %v", step, w.Err(), first)
			}
		}
		if first == nil {
			t.Fatalf("%d steps over %d bytes never failed", len(data)+1+2*ops, len(data))
		}
	})
}
