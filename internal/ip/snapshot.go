package ip

import "outran/internal/snapshot"

// TupleBytes is the encoded size of a five-tuple, the floor callers
// quote when they bound a count of tuple-keyed records.
const TupleBytes = 13

// Walk is the five-tuple's canonical 13-byte checkpoint layout.
func (ft *FiveTuple) Walk(w *snapshot.Walker) {
	w.Raw(ft.Src[:])
	w.Raw(ft.Dst[:])
	w.U16(&ft.SrcPort)
	w.U16(&ft.DstPort)
	w.U8(&ft.Proto)
}

// Walk is the checkpoint layout of a packet's full header state.
func (p *Packet) Walk(w *snapshot.Walker) {
	p.Tuple.Walk(w)
	w.U32(&p.Seq)
	w.U32(&p.Ack)
	w.Bool(&p.ACKFlag)
	w.Bool(&p.SYN)
	w.Bool(&p.FIN)
	w.Int(&p.PayloadLen)
}
