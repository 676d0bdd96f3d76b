package rlc

import (
	"errors"
	"fmt"
	"slices"

	"outran/internal/ip"
	"outran/internal/snapshot"
)

// Structural sentinels for the RLC snapshot walk.
const (
	tagSDU   = 0x7c01
	tagPDU   = 0x7c02
	tagTxBuf = 0x7c03
	tagUMTx  = 0x7c04
	tagUMRx  = 0x7c05
	tagAMTx  = 0x7c06
	tagAMRx  = 0x7c07
)

// Reference markers: an object is written inline on first encounter
// and as a table index afterwards, so pointer sharing (an SDU queued
// in the tx buffer AND referenced by segments of in-flight PDUs AND
// half-reassembled at the receiver) survives the round trip.
const (
	refNil    = 0
	refInline = 1
	refIndex  = 2
)

// Fewest bytes the records below encode to, quoted where a walk bounds
// a count of them. RefBytes is a reference to an SDU or PDU: at least a
// marker and an index.
const (
	RefBytes     = 1 + 4
	segmentBytes = 1 + 8 + 8 + 1
	partialBytes = RefBytes + 8 + 8
	flowAggBytes = ip.TupleBytes + 8 + 8 + 8 + 8
)

var errDoubleRestore = errors.New("rlc: entity already restored once")

// Refs threads a walker together with the identity tables for SDUs and
// PDUs. One Refs spans everything that can share objects — in practice
// one UE's bearer plus its in-flight transport blocks.
type Refs struct {
	W    *snapshot.Walker
	sdus refTable[SDU]
	pdus refTable[PDU]
}

// refTable numbers the objects of one type in the order the walk first
// meets them: object to index while encoding, index to the one restored
// instance while decoding.
type refTable[T any] struct {
	idx map[*T]uint32
	tab []*T
}

// NewRefs builds a reference context over w.
func NewRefs(w *snapshot.Walker) *Refs {
	return &Refs{W: w, sdus: refTable[SDU]{idx: make(map[*SDU]uint32)}, pdus: refTable[PDU]{idx: make(map[*PDU]uint32)}}
}

// walk walks one reference, inline walking the object itself where the
// reference is its first. A nil reference is encodable, but nothing the
// entities hold is optional, so decoding one is corrupt input.
func (t *refTable[T]) walk(w *snapshot.Walker, p **T, what string, inline func(*T)) {
	var marker uint8
	var at uint32
	if !w.Decoding() && *p != nil {
		var seen bool
		if at, seen = t.idx[*p]; seen {
			marker = refIndex
		} else {
			marker = refInline
			t.idx[*p] = uint32(len(t.idx))
		}
	}
	w.U8(&marker)
	switch marker {
	case refIndex:
		w.U32(&at)
	case refInline:
		if w.Decoding() {
			*p = new(T)
		}
		inline(*p)
	}
	if !w.Decoding() {
		return
	}
	switch {
	case w.Err() != nil:
		*p = nil
	case marker == refInline:
		t.tab = append(t.tab, *p)
	case marker == refIndex && int(at) < len(t.tab):
		*p = t.tab[at]
	case marker == refIndex:
		w.Fail(fmt.Errorf("%w: %s ref %d beyond table of %d", snapshot.ErrCorrupt, what, at, len(t.tab)))
	case marker == refNil:
		w.Fail(fmt.Errorf("%w: nil %s reference", snapshot.ErrCorrupt, what))
	default:
		w.Fail(fmt.Errorf("%w: unknown %s reference marker %d", snapshot.ErrCorrupt, what, marker))
	}
}

// SDU walks a reference to an SDU.
func (c *Refs) SDU(p **SDU) {
	c.sdus.walk(c.W, p, "SDU", func(s *SDU) { s.walk(c.W) })
}

func (s *SDU) walk(w *snapshot.Walker) {
	w.Mark(tagSDU)
	w.U64(&s.ID)
	w.Int(&s.Size)
	w.Int(&s.Priority)
	snapshot.I64(w, &s.Arrival)
	s.Flow.Walk(w)
	w.I64(&s.FlowSize)
	w.Bool(&s.QoS)
	snapshot.I64(w, &s.DelayBudget)
	w.U32(&s.PDCPSN)
	w.Bytes(&s.Header)
	s.Packet.Walk(w)
	w.Int(&s.sentOffset)
	w.Bool(&s.evicted)
	w.Int(&s.reportPrio)
}

// PDU walks a reference to a PDU, its segments as SDU references so
// segment sharing across retransmission copies is preserved.
func (c *Refs) PDU(p **PDU) {
	c.pdus.walk(c.W, p, "PDU", func(pdu *PDU) {
		w := c.W
		w.Mark(tagPDU)
		w.U32(&pdu.SN)
		snapshot.Slice(w, &pdu.Segments, 1<<20, segmentBytes, func(seg *Segment) {
			c.SDU(&seg.SDU)
			w.Int(&seg.Offset)
			w.Int(&seg.Len)
			w.Bool(&seg.Last)
		})
		w.Int(&pdu.Bytes)
		w.Bool(&pdu.Poll)
		w.Bool(&pdu.Retx)
		w.Int(&pdu.SO)
		w.Int(&pdu.Whole)
	})
}

// Walk is a status PDU's checkpoint layout (used both by AM entity
// state and by the cell's in-flight status-uplink events).
func (st *StatusPDU) Walk(w *snapshot.Walker) {
	w.U32(&st.AckSN)
	snapshot.Slice(w, &st.Nacks, 1<<20, 4+8, func(n *Nack) {
		w.U32(&n.SN)
		w.Int(&n.SO)
	})
}

func (c *Refs) deque(d *deque) {
	live := d.items[d.head:]
	snapshot.Slice(c.W, &live, 1<<24, RefBytes, c.SDU)
	if c.W.Decoding() {
		*d = deque{items: live}
	}
}

// held walks a receiver's reordering window in SN order.
func (c *Refs) held(m map[uint32]*PDU) {
	snapshot.Map(c.W, m, 1<<20, 4+RefBytes, slices.Sort, func(sn *uint32, p **PDU) {
		c.W.U32(sn)
		c.PDU(p)
	})
}

// partials walks a receiver's reassembly table. Decoding, into a fresh
// receiver, requires ascending SDU ids.
func (c *Refs) partials(ps *[]partialSDU) {
	w := c.W
	snapshot.Slice(w, ps, 1<<24, partialBytes, func(p *partialSDU) {
		c.SDU(&p.sdu)
		w.Int(&p.received)
		snapshot.I64(w, &p.due)
	})
	for i := 1; w.Decoding() && w.Err() == nil && i < len(*ps); i++ {
		if prev, id := (*ps)[i-1].sdu.ID, (*ps)[i].sdu.ID; prev >= id {
			w.Fail(fmt.Errorf("%w: partial SDU id %d after %d, out of ascending order", snapshot.ErrCorrupt, id, prev))
		}
	}
	if w.Decoding() && w.Err() != nil {
		*ps = nil
	}
}

// gone walks a receiver's ascending list of SDU ids given up on.
func (c *Refs) gone(ids *[]uint64) {
	w := c.W
	snapshot.Slice(w, ids, maxGivenUp, 8, w.U64)
	if w.Decoding() && !slices.IsSorted(*ids) {
		w.Fail(fmt.Errorf("%w: SDU ids given up on out of ascending order", snapshot.ErrCorrupt))
	}
}

func (b *txBuf) walk(c *Refs) {
	w := c.W
	w.Mark(tagTxBuf)
	if w.FixedLen(len(b.queues), 1<<10, "priority queues") {
		for i := range b.queues {
			c.deque(&b.queues[i])
		}
	}
	w.Int(&b.count)
	w.Int(&b.bytes)
	for i := range b.prioBytes {
		w.Int(&b.prioBytes[i])
	}
	snapshot.Map(w, b.flows, 1<<24, flowAggBytes, ip.SortTuples, func(ft *ip.FiveTuple, fa **flowAgg) {
		ft.Walk(w)
		if w.Decoding() {
			*fa = &flowAgg{}
		}
		(*fa).walk(w)
	})
	w.Int(&b.evictions)
	w.Int(&b.qosBytes)
	c.deque(&b.qosList)
}

func (fa *flowAgg) walk(w *snapshot.Walker) {
	w.Int(&fa.queuedSDUs)
	w.Int(&fa.queuedBytes)
	w.I64(&fa.dequeued)
	w.I64(&fa.flowSize)
}

// Walk is the UM transmitter's checkpoint layout: buffer contents and
// SN state. Like every entity walk it decodes only into a freshly built
// entity; one that already holds state is an error.
func (t *UMTx) Walk(c *Refs) {
	if c.W.Decoding() && (t.buf.count != 0 || t.sn != 0) {
		c.W.Fail(fmt.Errorf("restoring UM tx entity: %w", errDoubleRestore))
		return
	}
	c.W.Mark(tagUMTx)
	t.buf.walk(c)
	c.W.U32(&t.sn)
}

// Walk is the UM receiver's checkpoint layout: reordering window,
// reassembly table, counters, and live timer arms.
func (r *UMRx) Walk(c *Refs) {
	w := c.W
	if w.Decoding() && (r.expected != 0 || len(r.held) != 0 || len(r.partials) != 0) {
		w.Fail(fmt.Errorf("restoring UM rx entity: %w", errDoubleRestore))
		return
	}
	w.Mark(tagUMRx)
	w.U32(&r.expected)
	c.held(r.held)
	c.partials(&r.partials)
	c.gone(&r.gone)
	w.U64(&r.delivered)
	w.U64(&r.discarded)
	w.U64(&r.skipped)
	r.gapTimer.Walk(w)
	r.sduTimer.Walk(w)
}

// Walk is the AM transmitter's checkpoint layout: buffer, unacked PDU
// window, retransmission queue, polling state, and the t-PollRetransmit
// arm.
func (t *AMTx) Walk(c *Refs) {
	w := c.W
	if w.Decoding() && (t.sn != 0 || len(t.txed) != 0 || t.buf.count != 0) {
		w.Fail(fmt.Errorf("restoring AM tx entity: %w", errDoubleRestore))
		return
	}
	w.Mark(tagAMTx)
	t.buf.walk(c)
	w.U32(&t.sn)
	c.held(t.txed)
	snapshot.Slice(w, &t.retxQ, 1<<20, 4+8+1, func(q *retx) {
		w.U32(&q.sn)
		w.Int(&q.so)
		w.Bool(&q.begun)
	})
	snapshot.Map(w, t.retxCount, 1<<20, 4+8, slices.Sort, func(sn *uint32, n *int) {
		w.U32(sn)
		w.Int(n)
	})
	w.Int(&t.pollPDU)
	w.Int(&t.sincePoll)
	w.U32(&t.pollSN)
	w.Bool(&t.pollNext)
	t.tPollRetx.Walk(w)
	w.Int(&t.maxRetx)
	w.U64(&t.abandoned)
	w.U64(&t.retxBytesSent)
}

// Walk is the AM receiver's checkpoint layout: reassembly table,
// window with the abandoned SNs in it, status state, and the two timer
// arms.
func (r *AMRx) Walk(c *Refs) {
	w := c.W
	if w.Decoding() && (r.floor != 0 || r.highest != 0 || len(r.held) != 0 || len(r.abandoned) != 0 || len(r.pieces) != 0) {
		w.Fail(fmt.Errorf("restoring AM rx entity: %w", errDoubleRestore))
		return
	}
	w.Mark(tagAMRx)
	c.partials(&r.partials)
	c.gone(&r.gone)
	c.held(r.held)
	c.held(r.abandoned)
	snapshot.Map(w, r.pieces, 1<<20, 4+4, slices.Sort, func(sn *uint32, ps *[]*PDU) {
		w.U32(sn)
		snapshot.Slice(w, ps, 1<<20, RefBytes, c.PDU)
	})
	w.U32(&r.floor)
	w.U32(&r.highest)
	w.U32(&r.highestStatus)
	w.U32(&r.trigger)
	w.U32(&r.pollUntil)
	r.prohibit.Walk(w)
	r.tReassembly.Walk(w)
	w.Bool(&r.pending)
	w.U64(&r.delivered)
	w.U64(&r.discarded)
}
