package obs

import (
	"math"
	"strconv"
	"unicode/utf8"

	"outran/internal/sim"
)

// appendEvent appends ev's JSONL line to dst: the bytes an
// encoding/json Encoder writes for ev, produced without reflection.
// Fields go out in Event's struct order; t and type always, every other
// field only when non-zero (omitempty). ok is false when a float field
// holds a NaN or an infinity, which JSON cannot carry — the line is
// then unusable and the caller reports the error.
//
// The rules mirrored from encoding/json — integer and float
// formatting, string escaping with HTML escaping on — are pinned by the
// differential and fuzz tests in encode_test.go, which also fail when
// Event gains a field this function does not write.
//
// appendEvent keeps no state. JSONLSink builds each line from the same
// pieces through its lineMemo, and the stream tests hold the sink's
// output to the concatenation of appendEvent's lines.
func appendEvent(dst []byte, ev *Event) (line []byte, ok bool) {
	dst = appendPrefix(dst, ev)
	dst = appendHead(dst, ev)
	dst = intField(dst, rbKey, int64(ev.RB))
	return appendTail(dst, ev, nil)
}

// appendPrefix appends `{"t":T,"type":"X"`, the part of a line that
// (T, Type) alone decides.
//
// Not a steady-state allocation: appends to the sink's reused buffers, which stop growing once they have held the longest line
func appendPrefix(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(ev.T), 10)
	dst = append(dst, `,"type":`...)
	return appendString(dst, ev.Type)
}

// appendHead appends the fields between type and rb.
func appendHead(dst []byte, ev *Event) []byte {
	dst = intField(dst, `,"ue":`, int64(ev.UE))
	dst = stringField(dst, `,"flow":`, ev.Flow)
	dst = intField(dst, `,"size":`, ev.Size)
	dst = intField(dst, `,"fct":`, int64(ev.FCT))

	dst = intField(dst, `,"sn":`, ev.SN)
	dst = intField(dst, `,"level":`, int64(ev.Level))
	dst = intField(dst, `,"sent":`, ev.Sent)
	dst = intField(dst, `,"threshold":`, ev.Threshold)

	dst = intField(dst, `,"bytes":`, int64(ev.Bytes))
	dst = intField(dst, `,"segs":`, int64(ev.Segs))
	dst = boolField(dst, `,"retx":`, ev.Retx)
	dst = boolField(dst, `,"ok":`, ev.OK)
	dst = intField(dst, `,"attempts":`, int64(ev.Attempts))
	dst = intField(dst, `,"bits":`, int64(ev.Bits))

	dst = intField(dst, `,"served_bits":`, int64(ev.ServedBits))
	dst = intField(dst, `,"used_rbs":`, int64(ev.UsedRBs))
	return intField(dst, `,"alloc_rbs":`, int64(ev.AllocRBs))
}

// rbKey opens the rb field, the one span the decision-line memo
// splices.
const rbKey = `,"rb":`

// appendTail appends the fields after rb and closes the line, taking
// float digits from floats when it is non-nil. ok is as appendEvent's.
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func appendTail(dst []byte, ev *Event, floats *floatMemo) (line []byte, ok bool) {
	ok = true
	dst = intField(dst, `,"best":`, int64(ev.Best))
	dst = intField(dst, `,"sel":`, int64(ev.Sel))
	dst, ok = floatField(dst, `,"best_m":`, ev.BestM, ok, floats)
	dst, ok = floatField(dst, `,"sel_m":`, ev.SelM, ok, floats)
	dst = intField(dst, `,"cands":`, int64(ev.Cands))

	dst, ok = floatField(dst, `,"se":`, ev.SE, ok, floats)
	dst, ok = floatField(dst, `,"fairness":`, ev.Fairness, ok, floats)
	dst, ok = floatField(dst, `,"active_se":`, ev.ActiveSE, ok, floats)

	dst = stringField(dst, `,"sched":`, ev.Sched)
	dst = intField(dst, `,"ues":`, int64(ev.UEs))
	dst = intField(dst, `,"rbs":`, int64(ev.RBs))
	if ev.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendUint(dst, ev.Seed, 10)
	}
	dst, ok = floatField(dst, `,"bandwidth_hz":`, ev.BandwidthHz, ok, floats)
	dst = intField(dst, `,"tti_ns":`, int64(ev.TTINanos))
	dst = intField(dst, `,"sample_period":`, int64(ev.SamplePeriod))

	return append(dst, '}', '\n'), ok
}

// lineMemo is what a JSONLSink remembers so that a line costs a copy
// rather than a format. Each memo is keyed on exactly the inputs its
// bytes are a function of, so every line it returns is appendEvent's:
//
//   - The last decision line, with the span of its `,"rb":N` field
//     (empty when RB is 0). The scheduler grants a user a run of RBs in
//     one subband with one metric, so a decision often equals the last
//     one in every field but RB; it copies that line and splices in its
//     own rb.
//   - The `{"t":T,"type":"X"` prefix, reused while (T, Type) holds.
//   - Float digits (floatMemo).
type lineMemo struct {
	buf []byte // the line being built when it is not a decision miss

	prefix   []byte
	prefT    sim.Time
	prefType string

	dec         Event  // the event decLine encodes, RB aside
	decLine     []byte // empty until the first decision is encoded
	rbAt, rbEnd int    // decLine[rbAt:rbEnd] is its rb field

	floats floatMemo
}

// line returns ev's line, valid until the next call. ok is as
// appendEvent's; the sink's error is sticky, so after a !ok the memo is
// not read again.
//
// Struct == is an exact key: fields that compare equal encode to equal
// bytes. The one pair of floats equal with different bits, ±0, are
// both omitted, and a NaN equals nothing.
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func (m *lineMemo) line(ev *Event) (line []byte, ok bool) {
	if ev.Type != EvDecision {
		m.buf, _, _, ok = m.encode(m.buf[:0], ev)
		return m.buf, ok
	}
	m.dec.RB = ev.RB // so that == compares every other field
	if len(m.decLine) > 0 && *ev == m.dec {
		m.buf = append(m.buf[:0], m.decLine[:m.rbAt]...)
		m.buf = intField(m.buf, rbKey, int64(ev.RB))
		m.buf = append(m.buf, m.decLine[m.rbEnd:]...)
		return m.buf, true
	}
	m.decLine, m.rbAt, m.rbEnd, ok = m.encode(m.decLine[:0], ev)
	m.dec = *ev
	return m.decLine, ok
}

// encode is appendEvent through the prefix and float memos; it also
// reports where the rb field lies.
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func (m *lineMemo) encode(dst []byte, ev *Event) (line []byte, rbAt, rbEnd int, ok bool) {
	if len(m.prefix) == 0 || ev.T != m.prefT || ev.Type != m.prefType {
		m.prefix = appendPrefix(m.prefix[:0], ev)
		m.prefT, m.prefType = ev.T, ev.Type
	}
	dst = append(dst, m.prefix...)
	dst = appendHead(dst, ev)
	rbAt = len(dst)
	dst = intField(dst, rbKey, int64(ev.RB))
	rbEnd = len(dst)
	dst, ok = appendTail(dst, ev, &m.floats)
	return dst, rbAt, rbEnd, ok
}

// floatMemoBits sizes floatMemo: 2^8 slots of 40 bytes.
const floatMemoBits = 8

// floatMemo is a direct-mapped cache of float digits keyed on
// math.Float64bits. A user's metric is the best_m of every RB the user
// is the best on in a TTI, and without an override it is the sel_m too,
// so most numbers a trace writes were formatted a moment before.
type floatMemo [1 << floatMemoBits]struct {
	bits uint64
	n    uint8
	text [31]byte // the longest form, e.g. -0.0000012345678901234567, is 25 bytes
}

// appendFloat appends formatFloat's digits for f, copied from f's slot
// when the slot holds them. A nil memo formats every time. f is never
// zero (floatField omits both zeros), so the zero bits of a slot never
// written match nothing.
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func (m *floatMemo) appendFloat(dst []byte, f float64) []byte {
	if m == nil {
		return formatFloat(dst, f)
	}
	bits := math.Float64bits(f)
	slot := &m[bits*0x9e3779b97f4a7c15>>(64-floatMemoBits)]
	if slot.bits == bits {
		return append(dst, slot.text[:slot.n]...)
	}
	start := len(dst)
	dst = formatFloat(dst, f)
	if n := copy(slot.text[:], dst[start:]); n == len(dst)-start {
		slot.bits, slot.n = bits, uint8(n)
	}
	return dst
}

// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func intField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func boolField(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	dst = append(dst, key...)
	return append(dst, "true"...)
}

// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func stringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	dst = append(dst, key...)
	return appendString(dst, v)
}

// floatField appends a non-zero float's key and digits. Both zeros
// count as empty. It returns ok && f is finite.
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func floatField(dst []byte, key string, f float64, ok bool, m *floatMemo) ([]byte, bool) {
	if f == 0 {
		return dst, ok
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	dst = append(dst, key...)
	return m.appendFloat(dst, f), ok
}

// formatFloat appends a finite float the way encoding/json does: the
// shortest decimal that round-trips, in 'f' form unless the magnitude
// is below 1e-6 or at least 1e21, then in 'e' form with a one-digit
// negative exponent not zero-padded (e-07 becomes e-7).
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func formatFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// escaping: `"` and `\` backslashed, \b \f \n \r \t by letter, other
// control bytes and the HTML-sensitive < > & as \u00XX (every flow id
// has a '>'), invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
//
// Not a steady-state allocation: as appendPrefix: the sink's reused buffers
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
