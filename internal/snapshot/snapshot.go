// Package snapshot defines the versioned binary checkpoint format used
// for deterministic crash-resume: a magic header, a format version, a
// sequence of named length-prefixed sections, and a trailing CRC32.
// One codec, Walker, writes and reads every byte: each stateful type
// describes its layout once, as a walk, and Builder.Walk runs it to
// encode a section while Archive.Walk runs it to decode one. Decoding
// is sticky-error and bounds-checked, so corrupt or truncated input
// always surfaces as a wrapped error, never a panic.
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
	"os"
	"path/filepath"
)

// Format constants. Version bumps whenever the byte layout of any
// section changes; readers reject mismatches outright rather than
// guessing (a wrong-version restore that "mostly works" would silently
// break byte-identical continuation). Version 2 records a cell's
// workload arrivals as one cursor per source — its place in a schedule
// a restore rebuilds — where version 1 listed every future arrival.
// Version 3 moves the open fairness block's per-UE shares from the
// cell section into the tracker's. Version 4 moves a cell's TTI, CQI
// and MLFQ-reset ticks from the engine section into the pending
// section, as payload-free cell events, and drops the RLC tx buffer's
// drop counter, which the cell's own count duplicated. Version 5 gives
// up on received RLC data only on 3GPP's triggers: a UM partial SDU
// records when it was overtaken, an AM receiver the SNs its transmitter
// abandoned, and the cell the UM PDUs skipped at a gap; the AM
// receiver's NACK counts and expiry timer, the AM transmitter's control
// queue and the UM receiver's t-Reassembly field are gone. Version 6
// gives RLC AM retransmissions their standard triggers: the AM
// receiver trades its periodic gap clock for t-Reassembly and
// RX_Highest_Status, and the AM transmitter's outstanding-poll flag
// becomes the poll due after t-PollRetransmit expired.
const (
	Version = 6
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

// Builder assembles a snapshot file from named sections, encoding each
// in place: a section writes its name and a length placeholder, then its
// payload, then patches the length, so a file is built in one buffer
// with no per-section copy. The zero value is ready to use; Reset keeps
// the buffer for the next file.
type Builder struct {
	w        Walker // encoding: the file so far, from the magic to the last section
	sections uint32
}

// Walk encodes one named section by running walk straight into the
// file's buffer. Section names must be unique within a file; duplicates
// are caught by Open.
func (b *Builder) Walk(name string, walk func(*Walker)) {
	b.header()
	b.w.String(&name)
	at := len(b.w.buf)
	b.w.grow(4)
	walk(&b.w)
	binary.LittleEndian.PutUint32(b.w.buf[at:], uint32(len(b.w.buf)-at-4))
	b.sections++
}

// header starts the file unless it is started: the magic, the version
// and a section count placeholder.
func (b *Builder) header() {
	if len(b.w.buf) == 0 {
		v, n := uint16(Version), uint32(0)
		b.w.Raw(magic[:])
		b.w.U16(&v)
		b.w.U32(&n)
	}
}

// Bytes finishes the file: magic, version, sections, trailing CRC32
// (IEEE) over everything before it. The result aliases the builder's
// buffer and is valid until the builder's next Walk or Reset.
func (b *Builder) Bytes() []byte {
	b.header()
	binary.LittleEndian.PutUint32(b.w.buf[len(magic)+2:], b.sections)
	return binary.LittleEndian.AppendUint32(b.w.buf, crc32.ChecksumIEEE(b.w.buf))
}

// Reset empties the builder for the next file, keeping its buffer.
func (b *Builder) Reset() { b.w.buf, b.sections = b.w.buf[:0], 0 }

// Archive is a parsed, checksum-verified snapshot file. Its sections
// are decoded by one walker it keeps, so an Archive is walked by one
// goroutine at a time.
type Archive struct {
	sections map[string][]byte
	names    []string
	w        Walker // decoding: the section being walked
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
	w := Walker{buf: body, off: len(magic), decoding: true}
	var v uint16
	if w.U16(&v); v != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, Version)
	}
	// A section is at least its name's and its payload's lengths.
	n := w.Len(0, 1<<20, 8)
	a := &Archive{sections: make(map[string][]byte, n)}
	for ; n > 0; n-- {
		var name string
		var payload []byte // copied out of data, so the archive owns it
		w.String(&name)
		if w.Bytes(&payload); w.err != nil {
			break
		}
		if _, dup := a.sections[name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		a.sections[name] = payload
		a.names = append(a.names, name)
	}
	if w.err != nil {
		return nil, fmt.Errorf("parsing sections: %w", w.err)
	}
	if left := len(body) - w.off; left != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, left)
	}
	return a, nil
}

// Names returns section names in file order.
func (a *Archive) Names() []string { return a.names }

// Walk decodes one named section by running walk over its payload. It
// is the one place a section is opened and closed: a missing section,
// the walk's first error and bytes left over after the walk all come
// back wrapped with the section's name.
func (a *Archive) Walk(name string, walk func(*Walker)) error {
	payload, ok := a.sections[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSection, name)
	}
	a.w = Walker{buf: payload, decoding: true}
	w := &a.w
	walk(w)
	if left := len(payload) - w.off; w.err == nil && left != 0 {
		w.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, left)
	}
	if w.err != nil {
		return fmt.Errorf("section %q: %w", name, w.err)
	}
	return nil
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
