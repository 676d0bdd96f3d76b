package pdcp

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"

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

// TestRestoreRejectsUnpackableFlowEntry: a flow entry keeps its sent
// bytes in 48 bits and its priority in 16, so a checkpoint entry with a
// byte count or a priority outside them is corrupt input. Each fails
// with snapshot.ErrCorrupt, allocating next to nothing, and the largest
// values that fit restore.
func TestRestoreRejectsUnpackableFlowEntry(t *testing.T) {
	image := func(sentBytes int64, prio int) []byte {
		return snapshottest.Encode(func(w *snapshot.Walker) {
			nextSN, n, counter, lastSeen := uint32(0), uint32(1), uint64(0), int64(0)
			tuple := testPkt(5000, 0, 0).Tuple
			w.Mark(tagTx)
			w.U32(&nextSN)
			w.U32(&n)
			tuple.Walk(w)
			w.I64(&sentBytes)
			w.I64(&lastSeen)
			w.Int(&prio)
			w.U64(&counter)
			w.U64(&counter)
		})
	}
	for _, tc := range []struct {
		name      string
		sentBytes int64
		prio      int
	}{
		{"negative sent bytes", -1, 0},
		{"sent bytes 2^48", 1 << 48, 0},
		{"priority 2^16", 0, 1 << 16},
		{"negative priority", 0, -1},
	} {
		img := image(tc.sentBytes, tc.prio)
		_, tx, _, _ := newPair(t, defaultCfg(), nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := snapshottest.Decode(img, tx.Walk)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: restore error = %v, want snapshot.ErrCorrupt", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: restore allocated %d bytes on the way to failing, want < 1 MiB", tc.name, got)
		}
	}
	_, tx, _, _ := newPair(t, defaultCfg(), nil)
	if err := snapshottest.Decode(image(1<<48-1, 1<<16-1), tx.Walk); err != nil {
		t.Fatalf("restoring 2^48-1 sent bytes at priority 2^16-1: %v", err)
	}
	if fe := tx.flows.at(0); fe.sentBytes() != 1<<48-1 || fe.prio() != 1<<16-1 {
		t.Fatalf("restored entry holds %d sent bytes at priority %d", fe.sentBytes(), fe.prio())
	}
}

// TestRecordSizes pins the per-flow record at 32 bytes: with the FCT
// sample's 16, the 48 bytes a served flow keeps, on which the flow-churn
// live-heap figure rests. A field added here must answer for that.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(flowEntry{}); got != 32 {
		t.Fatalf("flowEntry is %d bytes, want 32: a served flow keeps one per cell, and flow-churn's live heap was sized at 32", got)
	}
}
