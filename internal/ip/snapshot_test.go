package ip

import (
	"testing"

	"outran/internal/snapshot/snapshottest"
)

// TestPacketFieldsWalked: every field of a packet, its five-tuple
// included, is checkpoint state, and a tuple encodes to TupleBytes.
func TestPacketFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*Packet).Walk, nil)
	snapshottest.Fields(t, (*FiveTuple).Walk, nil)
	if n := len(snapshottest.Encode((&FiveTuple{}).Walk)); n != TupleBytes {
		t.Fatalf("a five-tuple encodes to %d bytes, TupleBytes says %d", n, TupleBytes)
	}
}
