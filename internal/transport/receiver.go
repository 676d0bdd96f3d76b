package transport

import "outran/internal/sim"

// interval is a half-open received byte range [lo, hi).
type interval struct{ lo, hi int64 }

// Receiver reassembles a flow at the UE and generates cumulative ACKs.
type Receiver struct {
	// SendAck transmits a cumulative acknowledgment toward the sender
	// (the cell wires it through the uplink delay).
	SendAck func(ackSeq int64)
	// SendSACK, when set, replaces SendAck: the acknowledgment carries
	// one SACK block (RFC 2018), [lo, hi), the out-of-order range
	// holding the segment that triggered it, or lo == hi == 0 when that
	// segment left nothing above ackSeq.
	SendSACK func(ackSeq, lo, hi int64)
	// OnDeliver fires whenever new contiguous bytes become available,
	// with the new contiguous high-water mark.
	OnDeliver func(contiguous int64)

	ooo        rangeSet // out-of-order ranges beyond cumAck
	cumAck     int64
	bytesRecvd int64
	lastData   sim.Time
}

// Reset clears the receiver for reuse on a new flow, keeping the
// interval buffers' capacity. Callbacks are dropped; the caller
// rewires them. After Reset the receiver's state is field-identical
// to a zero Receiver.
func (r *Receiver) Reset() {
	r.SendAck = nil
	r.SendSACK = nil
	r.OnDeliver = nil
	r.ooo.ivs = r.ooo.ivs[:0]
	r.cumAck = 0
	r.bytesRecvd = 0
	r.lastData = 0
}

// CumAck returns the contiguous high-water mark.
func (r *Receiver) CumAck() int64 { return r.cumAck }

// BytesReceived returns the total payload bytes received (including
// duplicates).
func (r *Receiver) BytesReceived() int64 { return r.bytesRecvd }

// OnData processes one data segment.
func (r *Receiver) OnData(seq int64, length int, now sim.Time) {
	r.bytesRecvd += int64(length)
	r.lastData = now
	lo, hi := seq, seq+int64(length)
	var block interval
	if hi > r.cumAck {
		if lo < r.cumAck {
			lo = r.cumAck
		}
		block = r.ooo.insert(interval{lo, hi})
		prev := r.cumAck
		r.advance()
		if r.cumAck > prev && r.OnDeliver != nil {
			r.OnDeliver(r.cumAck)
		}
		if block.lo <= r.cumAck {
			block = interval{}
		}
	}
	// Every data segment triggers an ACK (no delayed ACK) so dupacks
	// signal losses promptly.
	switch {
	case r.SendSACK != nil:
		r.SendSACK(r.cumAck, block.lo, block.hi)
	case r.SendAck != nil:
		r.SendAck(r.cumAck)
	}
}

// rangeSet is a sorted set of disjoint, non-adjacent half-open byte
// ranges: the receiver's out-of-order data and the sender's SACK
// scoreboard.
type rangeSet struct {
	ivs     []interval
	scratch []interval // insert's merge buffer, swapped with ivs
}

// insert merges v into the set and returns the range that now holds
// it. The merge builds into the second buffer and swaps, so the steady
// state allocates nothing: ivs and scratch alternate backing arrays and
// never alias.
func (r *rangeSet) insert(v interval) interval {
	out := r.scratch[:0]
	placed := false
	for _, iv := range r.ivs {
		switch {
		case iv.hi < v.lo:
			out = append(out, iv)
		case v.hi < iv.lo:
			if !placed {
				out = append(out, v)
				placed = true
			}
			out = append(out, iv)
		default: // overlap: merge
			if iv.lo < v.lo {
				v.lo = iv.lo
			}
			if iv.hi > v.hi {
				v.hi = iv.hi
			}
		}
	}
	if !placed {
		out = append(out, v)
	}
	r.scratch = r.ivs[:0]
	r.ivs = out
	return v
}

// cut drops the ranges, and the parts of ranges, below at. It compacts
// in place: reslicing past the dropped ranges would shed the array's
// capacity, and insert would grow it back.
func (r *rangeSet) cut(at int64) {
	k := 0
	for k < len(r.ivs) && r.ivs[k].hi <= at {
		k++
	}
	if k > 0 {
		r.ivs = r.ivs[:copy(r.ivs, r.ivs[k:])]
	}
	if len(r.ivs) > 0 && r.ivs[0].lo < at {
		r.ivs[0].lo = at
	}
}

// advance slides cumAck over the now-contiguous range and drops it.
func (r *Receiver) advance() {
	if iv := r.ooo.ivs; len(iv) > 0 && iv[0].lo <= r.cumAck {
		r.cumAck = max(r.cumAck, iv[0].hi)
		r.ooo.cut(r.cumAck)
	}
}

// Gaps returns the number of out-of-order holes currently held.
func (r *Receiver) Gaps() int { return len(r.ooo.ivs) }
