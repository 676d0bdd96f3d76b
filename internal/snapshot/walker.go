package snapshot

import "fmt"

// Walker runs one description of a byte layout in either direction: the
// same sequence of calls appends a value's fields to an Encoder or reads
// them back from a Decoder, so a type's checkpoint layout is written
// once — its walk — and field order cannot drift between snapshot and
// restore. Every method takes a pointer: it reads through it when
// encoding and writes through it when decoding.
//
// Decoding keeps the Decoder's sticky-error contract: after the first
// failure every method leaves zero values behind and Err reports the
// cause. Checks that only make sense on input (layout mismatches, range
// validation, dirty restore targets) sit inside the walk under
// `if w.Decoding()` and report through Fail.
type Walker struct {
	enc *Encoder
	dec *Decoder
}

// EncodeWalker returns a walker that appends to e.
func EncodeWalker(e *Encoder) *Walker { return &Walker{enc: e} }

// DecodeWalker returns a walker that reads from d.
func DecodeWalker(d *Decoder) *Walker { return &Walker{dec: d} }

// Decoding reports whether the walk is reading a snapshot back.
func (w *Walker) Decoding() bool { return w.dec != nil }

// Err returns the first decode error, or nil. Encoding never fails.
func (w *Walker) Err() error {
	if w.dec == nil {
		return nil
	}
	return w.dec.err
}

// Fail records a decode error found by the walk itself if no earlier
// one is pending. A walk that fails while encoding is describing a
// layout it cannot write, which only a bug in the walk produces.
func (w *Walker) Fail(err error) {
	if w.dec == nil {
		panic(fmt.Sprintf("snapshot: walk failed while encoding: %v", err))
	}
	w.dec.Fail(err)
}

// U8 walks a byte.
//
//outran:allocfree
func (w *Walker) U8(p *uint8) {
	if w.dec != nil {
		*p = w.dec.U8()
		return
	}
	w.enc.U8(*p)
}

// Bool walks a boolean as one byte.
//
//outran:allocfree
func (w *Walker) Bool(p *bool) {
	if w.dec != nil {
		*p = w.dec.Bool()
		return
	}
	w.enc.Bool(*p)
}

// U16 walks a little-endian uint16.
//
//outran:allocfree
func (w *Walker) U16(p *uint16) {
	if w.dec != nil {
		*p = w.dec.U16()
		return
	}
	w.enc.U16(*p)
}

// U32 walks a little-endian uint32.
//
//outran:allocfree
func (w *Walker) U32(p *uint32) {
	if w.dec != nil {
		*p = w.dec.U32()
		return
	}
	w.enc.U32(*p)
}

// U64 walks a little-endian uint64.
//
//outran:allocfree
func (w *Walker) U64(p *uint64) {
	if w.dec != nil {
		*p = w.dec.U64()
		return
	}
	w.enc.U64(*p)
}

// I64 walks a little-endian int64.
//
//outran:allocfree
func (w *Walker) I64(p *int64) {
	if w.dec != nil {
		*p = w.dec.I64()
		return
	}
	w.enc.I64(*p)
}

// Int walks an int as 8 bytes.
//
//outran:allocfree
func (w *Walker) Int(p *int) {
	if w.dec != nil {
		*p = w.dec.Int()
		return
	}
	w.enc.Int(*p)
}

// F64 walks a float64 bit-exactly.
//
//outran:allocfree
func (w *Walker) F64(p *float64) {
	if w.dec != nil {
		*p = w.dec.F64()
		return
	}
	w.enc.F64(*p)
}

// Mark walks a structural sentinel: written when encoding, verified
// when decoding (see Encoder.Mark).
//
//outran:allocfree
func (w *Walker) Mark(tag uint32) {
	if w.dec != nil {
		w.dec.Expect(tag)
		return
	}
	w.enc.Mark(tag)
}

// Raw walks len(b) bytes in place, with no length prefix.
func (w *Walker) Raw(b []byte) {
	if w.dec != nil {
		copy(b, w.dec.take(len(b)))
		return
	}
	w.enc.Raw(b)
}

// Bytes walks a length-prefixed byte slice. Decoding copies out of the
// input and leaves nil for an empty slice.
func (w *Walker) Bytes(p *[]byte) {
	if w.dec != nil {
		*p = nil
		if b := w.dec.Bytes32(); len(b) > 0 {
			*p = append([]byte(nil), b...)
		}
		return
	}
	w.enc.Bytes32(*p)
}

// String walks a length-prefixed string.
func (w *Walker) String(p *string) {
	if w.dec != nil {
		*p = w.dec.String()
		return
	}
	w.enc.String(*p)
}

// Len walks an element count: n when encoding; when decoding, the
// stored count, checked against max and against the input itself — a
// count whose elements, at minBytes encoded bytes each, cannot fit in
// what is left fails before the caller sizes anything from it. It
// returns the count to iterate over, zero once the walk has failed.
func (w *Walker) Len(n, max, minBytes int) int {
	if w.dec == nil {
		w.enc.U32(uint32(n))
		return n
	}
	at := w.dec.off
	n = w.dec.Count(max)
	if need := int64(n) * int64(minBytes); need > int64(w.dec.Remaining()) {
		w.dec.Fail(fmt.Errorf("%w: count %d at offset %d needs at least %d bytes, have %d",
			ErrTruncated, n, at, need, w.dec.Remaining()))
		return 0
	}
	return n
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
	if w.dec != nil {
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
	if w.dec != nil {
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

// Walk encodes one named section by running walk straight into the
// file's buffer.
func (b *Builder) Walk(name string, walk func(*Walker)) {
	at := b.begin(name)
	walk(EncodeWalker(&b.e))
	b.end(at)
}

// Walk decodes one named section by running walk over its payload. It
// is the one place a section is opened and closed: a missing section,
// the walk's first error and bytes left over after the walk all come
// back wrapped with the section's name.
func (a *Archive) Walk(name string, walk func(*Walker)) error {
	d, err := a.Section(name)
	if err != nil {
		return err
	}
	walk(DecodeWalker(d))
	if d.err == nil && d.Remaining() != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	if d.err != nil {
		return fmt.Errorf("section %q: %w", name, d.err)
	}
	return nil
}
