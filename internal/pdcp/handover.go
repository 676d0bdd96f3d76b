package pdcp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"outran/internal/ip"
)

// errAlreadyImported guards against double imports: flow state (or a
// snapshot) may be merged into a given entity instance only once.
// Handover and restore both rebuild the PDCP entity before importing,
// so a second import into the same instance is always a programming
// error that would silently clobber live state.
var errAlreadyImported = errors.New("pdcp: entity already imported state once")

// Flow-state transfer for handover (§7 of the paper): when a UE moves
// to a target xNodeB, the source can ship its per-flow sent-bytes
// table along with the forwarded data so the MLFQ priorities survive
// the handover. The paper prices this at 41 bytes per flow — 37 for
// the five-tuple record and 4 for the sent-byte counter — and this
// encoding matches that budget exactly.

// FlowRecordLen is the wire size of one exported flow state — the
// paper's 41-byte per-flow handover cost. Exported so the deployment
// runtime can count transferred flows from the blob length.
const FlowRecordLen = 41

// flowRecordLen is the internal alias the codecs use.
const flowRecordLen = FlowRecordLen

// ExportFlowState serialises the flow table. Layout per flow:
//
//	src IP (4) | dst IP (4) | src port (2) | dst port (2) | proto (1)
//	padded five-tuple region to 37 bytes | sent bytes (4, saturating)
//
// Records are emitted in canonical five-tuple order so the blob — and
// everything downstream of it, byte budgets included — is identical
// across same-seed runs.
func (t *Tx) ExportFlowState() []byte {
	out := make([]byte, 0, t.flows.len()*flowRecordLen)
	var rec [flowRecordLen]byte
	t.flows.each(func(fe *flowEntry) {
		tuple := fe.key.Tuple()
		for i := range rec {
			rec[i] = 0
		}
		copy(rec[0:4], tuple.Src[:])
		copy(rec[4:8], tuple.Dst[:])
		binary.BigEndian.PutUint16(rec[8:10], tuple.SrcPort)
		binary.BigEndian.PutUint16(rec[10:12], tuple.DstPort)
		rec[12] = tuple.Proto
		binary.BigEndian.PutUint32(rec[37:41], uint32(min(fe.sentBytes(), 0xffffffff)))
		out = append(out, rec[:]...)
	})
	return out
}

// ImportFlowState merges an exported table into this entity (the
// target xNodeB after handover). Existing entries are overwritten:
// the source cell's view is fresher. An entity accepts at most one
// import per lifetime; re-importing returns a wrapped error.
func (t *Tx) ImportFlowState(data []byte) error {
	if t.imported {
		return fmt.Errorf("pdcp: importing %d-byte flow state blob: %w", len(data), errAlreadyImported)
	}
	if len(data)%flowRecordLen != 0 {
		return fmt.Errorf("pdcp: flow state blob length %d not a multiple of %d", len(data), flowRecordLen)
	}
	t.imported = true
	now := t.eng.Now()
	for off := 0; off < len(data); off += flowRecordLen {
		rec := data[off : off+flowRecordLen]
		var tuple ip.FiveTuple
		copy(tuple.Src[:], rec[0:4])
		copy(tuple.Dst[:], rec[4:8])
		tuple.SrcPort = binary.BigEndian.Uint16(rec[8:10])
		tuple.DstPort = binary.BigEndian.Uint16(rec[10:12])
		tuple.Proto = rec[12]
		key := tuple.Key()
		fe, at := t.flows.find(key)
		if fe == nil {
			fe = t.flows.insert(at, key)
		}
		*fe = flowEntry{key: key, lastSeen: now, sent: uint64(binary.BigEndian.Uint32(rec[37:41])) << prioBits}
	}
	return nil
}
