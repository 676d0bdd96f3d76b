package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Walker is the checkpoint codec: it runs one description of a byte
// layout in either direction, so the same sequence of calls appends a
// value's fields to a buffer or reads them back from one. A type's
// checkpoint layout is written once — its walk — and field order cannot
// drift between snapshot and restore. Every method takes a pointer: it
// reads through it when encoding and writes through it when decoding.
//
// Encoding appends fixed-width little-endian primitives and never
// fails. Decoding is bounds-checked and sticky: the first failure (an
// out-of-bounds read, a sentinel or count that cannot be right) is kept,
// every later method leaves its zero value behind, and Err reports the
// cause — corrupt or truncated input is a wrapped error, never a panic.
// Checks that only make sense on input (layout mismatches, range
// validation, dirty restore targets) sit inside the walk under
// `if w.Decoding()` and report through Fail.
//
// Builder.Walk hands a walk its encoding Walker and Archive.Walk its
// decoding one.
type Walker struct {
	buf      []byte // encoding: the output so far; decoding: the input
	off      int    // decoding: the read position in buf
	err      error  // decoding: the first failure
	decoding bool
}

// zeros is what a failed decode reads, so every fixed-width primitive
// leaves its zero value.
var zeros [8]byte

// grow appends n bytes to an encoding walk's buffer and returns them for
// the caller to fill. A full buffer doubles, since append's quarter
// steps would copy a large file about four times over while it grows;
// otherwise only the length moves, so the buffer's pointer is rewritten
// — a write barrier while the collector runs — only when the buffer is.
// It is small enough to inline into every primitive's encode branch.
func (w *Walker) grow(n int) []byte {
	l := len(w.buf)
	if cap(w.buf)-l < n {
		w.buf = slices.Grow(w.buf, max(n, l))
	}
	w.buf = w.buf[:l+n]
	return w.buf[l:]
}

// read returns the next n input bytes of a decoding walk for the caller
// to read — zeros (nil past eight bytes) once the walk has failed.
func (w *Walker) read(n int) []byte {
	if w.err == nil && n > len(w.buf)-w.off {
		// Not a steady-state allocation: cold error path; the first failure of a decode, never the encode side the walker's contract covers
		w.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, w.off, len(w.buf)-w.off)
	}
	if w.err != nil {
		if n > len(zeros) {
			return nil
		}
		return zeros[:n]
	}
	w.off += n
	return w.buf[w.off-n : w.off]
}

// Decoding reports whether the walk is reading a snapshot back.
func (w *Walker) Decoding() bool { return w.decoding }

// Err returns the first decode error, or nil. Encoding never fails.
func (w *Walker) Err() error { return w.err }

// Fail records a decode error found by the walk itself if no earlier
// one is pending. A walk that fails while encoding is describing a
// layout it cannot write, which only a bug in the walk produces.
func (w *Walker) Fail(err error) {
	if !w.decoding {
		panic(fmt.Sprintf("snapshot: walk failed while encoding: %v", err))
	}
	if w.err == nil {
		w.err = err
	}
}

// U8 walks a byte.
//
//outran:allocfree
func (w *Walker) U8(p *uint8) {
	if w.decoding {
		*p = w.read(1)[0]
	} else {
		w.grow(1)[0] = *p
	}
}

// Bool walks a boolean as one byte; any non-zero byte decodes as true.
//
//outran:allocfree
func (w *Walker) Bool(p *bool) {
	if w.decoding {
		*p = w.read(1)[0] != 0
	} else if b := w.grow(1); *p {
		b[0] = 1
	} else {
		b[0] = 0
	}
}

// U16 walks a little-endian uint16.
//
//outran:allocfree
func (w *Walker) U16(p *uint16) {
	if w.decoding {
		*p = binary.LittleEndian.Uint16(w.read(2))
	} else {
		binary.LittleEndian.PutUint16(w.grow(2), *p)
	}
}

// U32 walks a little-endian uint32.
//
//outran:allocfree
func (w *Walker) U32(p *uint32) {
	if w.decoding {
		*p = binary.LittleEndian.Uint32(w.read(4))
	} else {
		binary.LittleEndian.PutUint32(w.grow(4), *p)
	}
}

// U64 walks a little-endian uint64.
//
//outran:allocfree
func (w *Walker) U64(p *uint64) {
	if w.decoding {
		*p = binary.LittleEndian.Uint64(w.read(8))
	} else {
		binary.LittleEndian.PutUint64(w.grow(8), *p)
	}
}

// I64 walks a little-endian int64.
//
//outran:allocfree
func (w *Walker) I64(p *int64) {
	if w.decoding {
		*p = int64(binary.LittleEndian.Uint64(w.read(8)))
	} else {
		binary.LittleEndian.PutUint64(w.grow(8), uint64(*p))
	}
}

// Int walks an int as 8 bytes.
//
//outran:allocfree
func (w *Walker) Int(p *int) {
	if w.decoding {
		*p = int(binary.LittleEndian.Uint64(w.read(8)))
	} else {
		binary.LittleEndian.PutUint64(w.grow(8), uint64(*p))
	}
}

// F64 walks a float64 bit-exactly (IEEE-754 bits, not a decimal
// round-trip), preserving byte-identical continuation of EWMA and
// metric state.
//
//outran:allocfree
func (w *Walker) F64(p *float64) {
	if w.decoding {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(w.read(8)))
	} else {
		binary.LittleEndian.PutUint64(w.grow(8), math.Float64bits(*p))
	}
}

// Mark walks a structural sentinel: written when encoding, verified
// when decoding, where a mismatch pinpoints where a walk went out of
// sync instead of letting misaligned fields masquerade as plausible
// state.
//
//outran:allocfree
func (w *Walker) Mark(tag uint32) {
	if !w.decoding {
		binary.LittleEndian.PutUint32(w.grow(4), tag^0x5eed5eed)
	} else if at := w.off; binary.LittleEndian.Uint32(w.read(4)) != tag^0x5eed5eed && w.err == nil {
		// Not a steady-state allocation: cold error path; the first failure of a decode, never the encode side the walker's contract covers
		w.err = fmt.Errorf("%w: sentinel mismatch at offset %d (want tag %#x)", ErrCorrupt, at, tag)
	}
}

// Raw walks len(b) bytes in place, with no length prefix.
func (w *Walker) Raw(b []byte) {
	if !w.decoding {
		copy(w.grow(len(b)), b)
	} else if in := w.read(len(b)); w.err == nil {
		copy(b, in)
	} else {
		clear(b)
	}
}

// Bytes walks a length-prefixed byte slice (u32 length). Decoding
// copies out of the input and leaves nil for an empty slice.
func (w *Walker) Bytes(p *[]byte) {
	if n := w.Len(len(*p), math.MaxInt, 1); !w.decoding {
		copy(w.grow(n), *p)
	} else {
		*p = nil
		if n > 0 {
			*p = append([]byte(nil), w.read(n)...)
		}
	}
}

// String walks a length-prefixed UTF-8 string (u32 length).
func (w *Walker) String(p *string) {
	if n := w.Len(len(*p), math.MaxInt, 1); !w.decoding {
		copy(w.grow(n), *p)
	} else {
		*p = string(w.read(n))
	}
}

// Len walks an element count as a u32: n when encoding; when decoding,
// the stored count, checked against max and against the input itself —
// a count whose elements, at minBytes encoded bytes each, cannot fit in
// what is left fails before the caller sizes anything from it. It
// returns the count to iterate over, zero once the walk has failed.
func (w *Walker) Len(n, max, minBytes int) int {
	at, v := w.off, uint32(n)
	w.U32(&v)
	if !w.decoding {
		return n
	}
	switch n, left := int(v), len(w.buf)-w.off; {
	case w.err != nil:
	case n < 0 || n > max:
		w.err = fmt.Errorf("%w: count %d at offset %d exceeds limit %d", ErrCorrupt, n, at, max)
	case int64(n)*int64(minBytes) > int64(left):
		w.err = fmt.Errorf("%w: count %d at offset %d needs at least %d bytes, have %d",
			ErrTruncated, n, at, int64(n)*int64(minBytes), left)
	default:
		return n
	}
	return 0
}

// FixedLen walks the length of a slice whose size the target's own
// construction fixes (per-UE tables, priority queues, bucket layouts),
// and reports whether the walk may go on to its n elements: a snapshot
// holding a different count was taken under another geometry.
func (w *Walker) FixedLen(n, max int, what string) bool {
	got := w.Len(n, max, 0)
	if w.Err() == nil && got != n {
		w.Fail(fmt.Errorf("%w: snapshot has %d %s, restore target is built with %d", ErrCorrupt, got, what, n))
	}
	return w.Err() == nil
}

// Same walks, with the walker method walk, a value the restore target's
// own construction fixes — an index, a mode, a flag — and fails a decode
// whose snapshot was taken with another.
func Same[T comparable](w *Walker, walk func(*T), have T, what string) {
	got := have
	if walk(&got); w.Err() == nil && got != have {
		w.Fail(fmt.Errorf("%w: snapshot has %s %v, restore target %v", ErrCorrupt, what, got, have))
	}
}

// I64 walks a value of an int64-based type such as sim.Time.
func I64[T ~int64](w *Walker, p *T) {
	v := int64(*p)
	w.I64(&v)
	*p = T(v)
}

// Slice walks a counted slice, elem walking one element in place.
// minBytes is the fewest bytes an element can encode to; decoding
// replaces *s (nil when empty) and sizes it only after Len has bounded
// the count by the input.
func Slice[T any](w *Walker, s *[]T, max, minBytes int, elem func(*T)) {
	n := w.Len(len(*s), max, minBytes)
	if w.decoding {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		elem(&(*s)[i])
	}
}

// Map walks a counted map in the key order sortKeys establishes, so
// equal maps encode to equal bytes; entry walks one key and its value.
// Decoding inserts into m, which the caller has made.
func Map[K comparable, V any](w *Walker, m map[K]V, max, minBytes int, sortKeys func([]K), entry func(*K, *V)) {
	// One key and one value for the whole walk: entry is a func value, so
	// what it is handed escapes, and a pair per entry would be two heap
	// objects per entry.
	var k, zeroK K
	var v, zeroV V
	if w.decoding {
		for n := w.Len(0, max, minBytes); n > 0; n-- {
			k, v = zeroK, zeroV
			entry(&k, &v)
			if w.Err() != nil {
				return
			}
			m[k] = v
		}
		return
	}
	keys := make([]K, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sortKeys(keys)
	w.Len(len(keys), max, minBytes)
	for _, key := range keys {
		k, v = key, m[key]
		entry(&k, &v)
	}
}
