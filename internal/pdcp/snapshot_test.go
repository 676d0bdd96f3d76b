package pdcp

import (
	"bytes"
	"errors"
	"testing"

	"outran/internal/ip"
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

	if err := snapshottest.Decode(img, tx2.Walk); !errors.Is(err, errAlreadyImported) {
		t.Fatalf("second decode into the same Tx: %v, want errAlreadyImported", err)
	}
}

// TestWalkRejectsUnsortedFlowTable: the encoder writes flows in strictly
// increasing key order, so a table with two entries swapped, or one
// entry twice, is corrupt input — not a table whose later entry silently
// wins.
func TestWalkRejectsUnsortedFlowTable(t *testing.T) {
	_, tx, _, _ := newPair(t, defaultCfg(), nil)
	for port := uint16(5000); port < 5003; port++ {
		tx.Submit(testPkt(port, 0, 1400), FlowMeta{})
	}
	img := snapshottest.Encode(tx.Walk)
	const at, rec = 4 + 4 + 4, ip.TupleBytes + 24 // after the tag, nextSN and the count
	entry := func(b []byte, i int) []byte { return b[at+i*rec : at+(i+1)*rec] }
	swapped := bytes.Clone(img)
	copy(entry(swapped, 1), entry(img, 2))
	copy(entry(swapped, 2), entry(img, 1))
	repeated := bytes.Clone(img)
	copy(entry(repeated, 1), entry(img, 0))
	for name, bad := range map[string][]byte{"swapped": swapped, "repeated": repeated} {
		_, fresh, _, _ := newPair(t, defaultCfg(), nil)
		if err := snapshottest.Decode(bad, fresh.Walk); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s entries: decode error %v, want snapshot.ErrCorrupt", name, err)
		}
	}
	_, fresh, _, _ := newPair(t, defaultCfg(), nil)
	if err := snapshottest.Decode(img, fresh.Walk); err != nil || fresh.FlowCount() != 3 {
		t.Fatalf("the intact image: error %v, %d flows", err, fresh.FlowCount())
	}
}

// TestFlowEntryFieldsWalked: every field of a flow-table entry is
// checkpoint state.
func TestFlowEntryFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*flowEntry).walk, nil)
}
