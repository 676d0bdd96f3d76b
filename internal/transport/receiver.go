package transport

import "outran/internal/sim"

// interval is a half-open received byte range [lo, hi).
type interval struct{ lo, hi int64 }

// Receiver reassembles a flow at the UE and generates cumulative ACKs.
type Receiver struct {
	// SendAck transmits a cumulative acknowledgment toward the sender
	// (the cell wires it through the uplink delay).
	SendAck func(ackSeq int64)
	// OnDeliver fires whenever new contiguous bytes become available,
	// with the new contiguous high-water mark.
	OnDeliver func(contiguous int64)

	ooo        []interval // disjoint out-of-order ranges beyond cumAck
	scratch    []interval // insert's merge buffer, swapped with ooo
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
	r.OnDeliver = nil
	r.ooo = r.ooo[:0]
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
	if hi > r.cumAck {
		if lo < r.cumAck {
			lo = r.cumAck
		}
		r.insert(interval{lo, hi})
		prev := r.cumAck
		r.advance()
		if r.cumAck > prev && r.OnDeliver != nil {
			r.OnDeliver(r.cumAck)
		}
	}
	// Every data segment triggers an ACK (no delayed ACK) so dupacks
	// signal losses promptly.
	if r.SendAck != nil {
		r.SendAck(r.cumAck)
	}
}

// insert merges rng into the disjoint sorted interval set. The merge
// builds into the receiver's second interval buffer and swaps, so the
// steady state allocates nothing: ooo and scratch alternate backing
// arrays and never alias.
func (r *Receiver) insert(v interval) {
	out := r.scratch[:0]
	placed := false
	for _, iv := range r.ooo {
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
	r.scratch = r.ooo[:0]
	r.ooo = out
}

// advance slides cumAck over now-contiguous intervals and drops them.
// It compacts ooo in place: reslicing past the dropped intervals would
// shed the array's capacity, and insert would grow it back.
func (r *Receiver) advance() {
	k := 0
	for k < len(r.ooo) && r.ooo[k].lo <= r.cumAck {
		r.cumAck = max(r.cumAck, r.ooo[k].hi)
		k++
	}
	if k > 0 {
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[k:])]
	}
}

// Gaps returns the number of out-of-order holes currently held.
func (r *Receiver) Gaps() int { return len(r.ooo) }
