package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
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
//outran:allocfree
//outran:allocok appends to the caller's buffer; the sink reuses one, which stops growing once it has held the longest line
func appendEvent(dst []byte, ev *Event) (line []byte, ok bool) {
	ok = true
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, int64(ev.T), 10)
	dst = append(dst, `,"type":`...)
	dst = appendString(dst, ev.Type)

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
	dst = intField(dst, `,"alloc_rbs":`, int64(ev.AllocRBs))

	dst = intField(dst, `,"rb":`, int64(ev.RB))
	dst = intField(dst, `,"best":`, int64(ev.Best))
	dst = intField(dst, `,"sel":`, int64(ev.Sel))
	// Without an override sel_m is best_m, the same number: format it
	// once and copy the digits (float formatting is the encoder's
	// largest cost, and decision records are most of a trace).
	const bestKey, selKey = `,"best_m":`, `,"sel_m":`
	mark := len(dst) + len(bestKey)
	dst, ok = floatField(dst, bestKey, ev.BestM, ok)
	if end := len(dst); end > mark && math.Float64bits(ev.SelM) == math.Float64bits(ev.BestM) {
		dst = append(dst, selKey...)
		dst = append(dst, dst[mark:end]...)
	} else {
		dst, ok = floatField(dst, selKey, ev.SelM, ok)
	}
	dst = intField(dst, `,"cands":`, int64(ev.Cands))

	dst, ok = floatField(dst, `,"se":`, ev.SE, ok)
	dst, ok = floatField(dst, `,"fairness":`, ev.Fairness, ok)
	dst, ok = floatField(dst, `,"active_se":`, ev.ActiveSE, ok)

	dst = stringField(dst, `,"sched":`, ev.Sched)
	dst = intField(dst, `,"ues":`, int64(ev.UEs))
	dst = intField(dst, `,"rbs":`, int64(ev.RBs))
	if ev.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendUint(dst, ev.Seed, 10)
	}
	dst, ok = floatField(dst, `,"bandwidth_hz":`, ev.BandwidthHz, ok)
	dst = intField(dst, `,"tti_ns":`, int64(ev.TTINanos))
	dst = intField(dst, `,"sample_period":`, int64(ev.SamplePeriod))

	return append(dst, '}', '\n'), ok
}

//outran:allocok as appendEvent: the sink's reused line buffer
func intField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

//outran:allocok as appendEvent: the sink's reused line buffer
func boolField(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	dst = append(dst, key...)
	return append(dst, "true"...)
}

//outran:allocok as appendEvent: the sink's reused line buffer
func stringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	dst = append(dst, key...)
	return appendString(dst, v)
}

// floatField appends a non-zero float the way encoding/json does: the
// shortest decimal that round-trips, in 'f' form unless the magnitude
// is below 1e-6 or at least 1e21, then in 'e' form with a one-digit
// negative exponent not zero-padded (e-07 becomes e-7). Both zeros
// count as empty. It returns ok && f is finite.
//
//outran:allocok as appendEvent: the sink's reused line buffer
func floatField(dst []byte, key string, f float64, ok bool) ([]byte, bool) {
	if f == 0 {
		return dst, ok
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	dst = append(dst, key...)
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, ok
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's default
// escaping: `"` and `\` backslashed, \b \f \n \r \t by letter, other
// control bytes and the HTML-sensitive < > & as \u00XX (every flow id
// has a '>'), invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
//
//outran:allocok as appendEvent: the sink's reused line buffer
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
