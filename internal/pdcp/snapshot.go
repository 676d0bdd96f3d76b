package pdcp

import (
	"fmt"

	"outran/internal/ip"
	"outran/internal/snapshot"
)

// Structural sentinels for the PDCP snapshot walk.
const (
	tagTx = 0x7d01
	tagRx = 0x7d02
)

// Walk is the transmitting entity's checkpoint layout, its full mutable
// state — the generalisation of ExportFlowState the checkpoint format
// needs: the cipher COUNT position (nextSN), the complete flow table
// including last-seen times and traced priority levels, and the stat
// counters. The cipher block and scratch are reconstruction/products of
// the key and are not part of it. Flows go in canonical five-tuple
// order. Decoding into an entity that has already numbered SDUs or
// tracked flows is an error (double import).
func (t *Tx) Walk(w *snapshot.Walker) {
	if w.Decoding() && (t.nextSN != 0 || t.flows.len() != 0 || t.submitted != 0) {
		w.Fail(fmt.Errorf("pdcp: restoring tx entity: %w", errAlreadyImported))
		return
	}
	w.Mark(tagTx)
	w.U32(&t.nextSN)
	t.flows.walk(w)
	w.U64(&t.submitted)
	w.U64(&t.inspectErr)
}

// walk is the flow table's layout: the entry count, then every entry in
// key order. Decoding rebuilds the array from it and rejects a table
// whose keys are not strictly increasing — one the encoder cannot have
// written.
func (ft *flowTable) walk(w *snapshot.Walker) {
	n := w.Len(ft.len(), 1<<24, ip.TupleBytes+24)
	if !w.Decoding() {
		ft.each(func(fe *flowEntry) { fe.walk(w) })
		return
	}
	a := make([]flowEntry, n)
	for i := 0; i < n && w.Err() == nil; i++ {
		a[i].walk(w)
		if i > 0 && w.Err() == nil && !a[i-1].key.Less(a[i].key) {
			w.Fail(fmt.Errorf("%w: PDCP flow %v does not follow %v in key order", snapshot.ErrCorrupt, a[i].key.Tuple(), a[i-1].key.Tuple()))
		}
	}
	*ft = flowTable{a: a, lo: n, hi: n}
}

// walk writes the entry unpacked: tuple, sent bytes, last-seen time,
// priority. Decoding rejects a byte count or a priority its half of
// sent cannot hold.
func (fe *flowEntry) walk(w *snapshot.Walker) {
	tuple := fe.key.Tuple()
	tuple.Walk(w)
	fe.key = tuple.Key()
	sentBytes, prio := fe.sentBytes(), fe.prio()
	w.I64(&sentBytes)
	snapshot.I64(w, &fe.lastSeen)
	w.Int(&prio)
	if !w.Decoding() || w.Err() != nil {
		return
	}
	if sentBytes < 0 || sentBytes > maxSentBytes || prio < 0 || prio > prioMask {
		w.Fail(fmt.Errorf("%w: PDCP flow %v has %d sent bytes at priority %d, outside [0, 2^48) x [0, 2^16)", snapshot.ErrCorrupt, tuple, sentBytes, prio))
		return
	}
	fe.sent = uint64(sentBytes)<<prioBits | uint64(prio)
}

// Walk is the receiving entity's checkpoint layout: the expected COUNT
// and the delivery counters. Scratch and the cipher block are rebuilt
// from config on the restore side.
func (r *Rx) Walk(w *snapshot.Walker) {
	if w.Decoding() && (r.next != 0 || r.delivered != 0 || r.decipherFail != 0) {
		w.Fail(fmt.Errorf("pdcp: restoring rx entity: %w", errAlreadyImported))
		return
	}
	w.Mark(tagRx)
	w.U32(&r.next)
	w.U64(&r.delivered)
	w.U64(&r.decipherFail)
}
