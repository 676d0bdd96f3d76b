package pdcp

import (
	"errors"
	"testing"

	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestWalkRoundTrip: a Tx tracking several flows and an Rx that has
// delivered survive encode -> decode -> encode byte for byte, and a
// second decode into the same entities is refused.
func TestWalkRoundTrip(t *testing.T) {
	_, tx, rx, _ := newPair(t, defaultCfg(), nil)
	for port := uint16(5000); port < 5004; port++ {
		for seq := uint32(0); seq < 3; seq++ {
			rx.OnSDU(tx.Submit(testPkt(port, seq*1400, 1400), FlowMeta{FlowSize: 4200}))
		}
	}
	if tx.FlowCount() != 4 || rx.Delivered() == 0 {
		t.Fatalf("%d flows tracked, %d SDUs delivered; the round trip would cover nothing", tx.FlowCount(), rx.Delivered())
	}
	_, tx2, rx2, _ := newPair(t, defaultCfg(), nil)
	img := snapshottest.RoundTrip(t, tx.Walk, tx2.Walk)
	snapshottest.RoundTrip(t, rx.Walk, rx2.Walk)

	w := snapshot.DecodeWalker(snapshot.NewDecoder(img))
	if tx2.Walk(w); !errors.Is(w.Err(), errAlreadyImported) {
		t.Fatalf("second decode into the same Tx: %v, want errAlreadyImported", w.Err())
	}
}

// TestFlowEntryFieldsWalked: every field of a flow-table entry is
// checkpoint state.
func TestFlowEntryFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*flowEntry).walk, nil)
}
