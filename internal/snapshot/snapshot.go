// Package snapshot defines the versioned binary checkpoint format used
// for deterministic crash-resume: a magic header, a format version, a
// sequence of named length-prefixed sections, and a trailing CRC32.
// Encoders append fixed-width little-endian primitives; decoders are
// sticky-error and bounds-checked so corrupt or truncated input always
// surfaces as a wrapped error, never a panic.
//
// The package is a leaf: it imports only the standard library, so every
// stateful layer (sim, rng, rlc, pdcp, transport, mac, core, metrics,
// obs, ran, fault, deploy) can depend on it without cycles.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Format constants. Version bumps whenever the byte layout of any
// section changes; readers reject mismatches outright rather than
// guessing (a wrong-version restore that "mostly works" would silently
// break byte-identical continuation). Version 2 records a cell's
// workload arrivals as one cursor per source — its place in a schedule
// a restore rebuilds — where version 1 listed every future arrival.
const (
	Version = 2
)

// magic identifies a snapshot file ("OutRAN SNaPshot").
var magic = [4]byte{'O', 'S', 'N', 'P'}

// Sentinel errors, always wrapped with context by the functions that
// return them.
var (
	ErrBadMagic  = errors.New("snapshot: bad magic")
	ErrVersion   = errors.New("snapshot: format version mismatch")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrTruncated = errors.New("snapshot: truncated input")
	ErrCorrupt   = errors.New("snapshot: corrupt input")
	ErrNoSection = errors.New("snapshot: missing section")
)

// Encoder appends primitives to a growing byte buffer. The zero value
// is ready to use. Encoding never fails; all validation happens on the
// decode side.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// grow extends the payload by n bytes and returns them for the caller to
// fill. A full buffer doubles: append's quarter steps would copy a large
// payload about four times over while it grows. Otherwise only the
// length moves, so the buffer's pointer is rewritten — a write barrier
// while the collector runs — only when the buffer does.
func (e *Encoder) grow(n int) []byte {
	l := len(e.buf)
	if cap(e.buf)-l < n {
		e.buf = slices.Grow(e.buf, max(n, l))
	}
	e.buf = e.buf[:l+n]
	return e.buf[l:]
}

// U8 appends a byte.
//
//outran:allocfree
func (e *Encoder) U8(v uint8) { e.grow(1)[0] = v }

// Bool appends a boolean as one byte.
//
//outran:allocfree
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
//
//outran:allocfree
func (e *Encoder) U16(v uint16) { binary.LittleEndian.PutUint16(e.grow(2), v) }

// U32 appends a little-endian uint32.
//
//outran:allocfree
func (e *Encoder) U32(v uint32) { binary.LittleEndian.PutUint32(e.grow(4), v) }

// U64 appends a little-endian uint64.
//
//outran:allocfree
func (e *Encoder) U64(v uint64) { binary.LittleEndian.PutUint64(e.grow(8), v) }

// I64 appends a little-endian int64.
//
//outran:allocfree
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as 8 bytes.
//
//outran:allocfree
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 bit-exactly (IEEE-754 bits, not a decimal
// round-trip), preserving byte-identical continuation of EWMA and
// metric state.
//
//outran:allocfree
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes32 appends a length-prefixed byte slice (u32 length).
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.Raw(b)
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	copy(e.grow(len(s)), s)
}

// Raw appends b with no length prefix (the caller owns framing).
func (e *Encoder) Raw(b []byte) { copy(e.grow(len(b)), b) }

// Mark appends a structural sentinel. Decoders verify it with Expect;
// a mismatch pinpoints where a walk went out of sync instead of
// letting misaligned fields masquerade as plausible state.
//
//outran:allocfree
func (e *Encoder) Mark(tag uint32) { e.U32(tag ^ 0x5eed5eed) }

// Decoder reads primitives back out of a byte buffer. The first
// failure (out-of-bounds read, sentinel mismatch) sticks: every later
// read returns the zero value and Err() reports the original cause.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for reading.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the current read position.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) fail(want int) {
	if d.err == nil {
		// Not a steady-state allocation: cold error path; the first failure of a decode, never the encode side the walker's contract covers
		d.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, want, d.off, len(d.buf)-d.off)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail(n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as 8 bytes.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a bit-exact float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes32 reads a length-prefixed byte slice. The returned slice
// aliases the decoder's buffer; callers that retain it must copy.
func (d *Decoder) Bytes32() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes32()) }

// Expect verifies a structural sentinel written by Encoder.Mark.
func (d *Decoder) Expect(tag uint32) {
	at := d.off
	got := d.U32()
	if d.err == nil && got != tag^0x5eed5eed {
		// Not a steady-state allocation: cold error path; the first failure of a decode, never the encode side the walker's contract covers
		d.err = fmt.Errorf("%w: sentinel mismatch at offset %d (want tag %#x)", ErrCorrupt, at, tag)
	}
}

// Fail records an application-level decode error (e.g. an impossible
// count) if no earlier error is pending.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Count reads a u32 element count and validates it against max,
// guarding slice pre-allocation against corrupt lengths.
func (d *Decoder) Count(max int) int {
	at := d.off
	n := int(d.U32())
	if d.err == nil && (n < 0 || n > max) {
		d.err = fmt.Errorf("%w: count %d at offset %d exceeds limit %d",
			ErrCorrupt, n, at, max)
		return 0
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Builder assembles a snapshot file from named sections, encoding each
// in place: a section writes its name and a length placeholder, then its
// payload, then patches the length, so a file is built in one buffer
// with no per-section copy. The zero value is ready to use; Reset keeps
// the buffer for the next file.
type Builder struct {
	e        Encoder // the file so far, from the magic to the last section
	sections uint32
}

// header starts the file unless it is started: the magic, the version
// and a section count placeholder.
func (b *Builder) header() {
	if b.e.Len() == 0 {
		b.e.Raw(magic[:])
		b.e.U16(Version)
		b.e.U32(0)
	}
}

// begin writes a section's name and length placeholder and returns the
// placeholder's offset.
func (b *Builder) begin(name string) int {
	b.header()
	b.e.String(name)
	b.e.U32(0)
	return b.e.Len() - 4
}

// end patches the length of the section whose placeholder is at at.
func (b *Builder) end(at int) {
	binary.LittleEndian.PutUint32(b.e.buf[at:], uint32(b.e.Len()-at-4))
	b.sections++
}

// Add appends a named section with the encoder's payload. Section
// names must be unique within a file; duplicates are caught by Open.
func (b *Builder) Add(name string, enc *Encoder) {
	at := b.begin(name)
	b.e.Raw(enc.Bytes())
	b.end(at)
}

// Bytes finishes the file: magic, version, sections, trailing CRC32
// (IEEE) over everything before it. The result aliases the builder's
// buffer and is valid until the builder's next Add, Walk or Reset.
func (b *Builder) Bytes() []byte {
	b.header()
	binary.LittleEndian.PutUint32(b.e.buf[len(magic)+2:], b.sections)
	return binary.LittleEndian.AppendUint32(b.e.buf, crc32.ChecksumIEEE(b.e.buf))
}

// Reset empties the builder for the next file, keeping its buffer.
func (b *Builder) Reset() { b.e.buf, b.sections = b.e.buf[:0], 0 }

// Archive is a parsed, checksum-verified snapshot file.
type Archive struct {
	sections map[string][]byte
	names    []string
}

// Open parses data, rejecting bad magic, version mismatch, checksum
// failure, truncation, and duplicate section names with clear errors.
func Open(data []byte) (*Archive, error) {
	if len(data) < len(magic)+2+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is smaller than the fixed header", ErrTruncated, len(data))
	}
	if string(data[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: got %q, want %q", ErrBadMagic, data[:4], magic[:])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: crc32 %#x, file says %#x", ErrChecksum, got, want)
	}
	d := NewDecoder(body[4:])
	if v := d.U16(); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	n := d.Count(1 << 20)
	a := &Archive{sections: make(map[string][]byte)} // not sized from n, which nothing has checked against the input yet
	for i := 0; i < n; i++ {
		name := d.String()
		payload := d.Bytes32()
		if d.Err() != nil {
			break
		}
		if _, dup := a.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		// Copy out of the input buffer so the archive owns its data.
		a.sections[name] = append([]byte(nil), payload...)
		a.names = append(a.names, name)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("parsing sections: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, d.Remaining())
	}
	return a, nil
}

// Names returns section names in file order.
func (a *Archive) Names() []string { return a.names }

// Has reports whether a section exists.
func (a *Archive) Has(name string) bool {
	_, ok := a.sections[name]
	return ok
}

// Section returns a decoder over the named section's payload.
func (a *Archive) Section(name string) (*Decoder, error) {
	b, ok := a.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSection, name)
	}
	return NewDecoder(b), nil
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory followed by rename, so a checkpoint is either the complete
// previous file or the complete new one — never a torn write.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: renaming into place: %w", err)
	}
	return nil
}

// ReadFile loads and parses a snapshot file.
func ReadFile(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	a, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	return a, nil
}
