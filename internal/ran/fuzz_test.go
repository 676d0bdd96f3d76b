package ran

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"outran/internal/ip"
	"outran/internal/snapshot"
)

// FuzzRestoreSnapshot restores cells from archives that are corrupt but
// CRC-valid: one section of a golden shape's archive is replaced by the
// fuzzer's bytes and the file re-sealed, so Open accepts it and every
// defence left is the walk's own. The restore must return — an error or
// success, never a panic — without allocating past a budget set by the
// input's size, and a cell that did restore must snapshot again.
func FuzzRestoreSnapshot(f *testing.F) {
	type seeded struct {
		cfg   Config
		img   []byte
		names []string
	}
	var shapes []seeded
	for i, s := range archiveShapes {
		img, err := s.build(f).Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		names := sectionNames(f, img)
		shapes = append(shapes, seeded{s.harness().Config, img, names})
		payloads := sectionBytes(f, img)
		for j, name := range names {
			f.Add(uint8(i), uint8(j), payloads[name])
		}
	}
	section, payload := unsortedFlowTable(f, archiveShapes[0].build(f))
	f.Add(uint8(0), uint8(slices.Index(shapes[0].names, section)), payload)
	f.Fuzz(func(t *testing.T, shape, section uint8, payload []byte) {
		s := shapes[int(shape)%len(shapes)]
		victim := s.names[int(section)%len(s.names)]
		a, err := snapshot.Open(reseal(t, s.img, func(name string, raw []byte) []byte {
			if name == victim {
				return payload
			}
			return raw
		}))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCell(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = fresh.RestoreSnapshot(a)
		runtime.ReadMemStats(&after)
		// Every count is bounded by the bytes behind it, so what a restore
		// can allocate is a small multiple of the file.
		if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(payload)); got > budget {
			t.Fatalf("restore of a %d-byte %s section allocated %d bytes, budget %d (err %v)", len(payload), victim, got, budget, err)
		}
		if err == nil {
			if _, err := fresh.Snapshot(); err != nil {
				t.Fatalf("restored cell does not snapshot: %v", err)
			}
		}
	})
}

// unsortedFlowTable snapshots c and returns the first UE section whose
// PDCP flow table holds two flows, with those two swapped: a payload the
// encoder cannot have written, which a restore must reject.
func unsortedFlowTable(t testing.TB, c *Cell) (section string, payload []byte) {
	t.Helper()
	img, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sections := sectionBytes(t, img)
	for i, ue := range c.ues {
		if ue.pdcpTx.FlowCount() < 2 {
			continue
		}
		var e snapshot.Encoder
		ue.pdcpTx.Walk(snapshot.EncodeWalker(&e))
		section = fmt.Sprintf("ue%d", i)
		payload = bytes.Clone(sections[section])
		at := bytes.Index(payload, e.Bytes())
		if at < 0 {
			t.Fatalf("UE %d's PDCP walk is not in its section", i)
		}
		// The entries follow the tag, nextSN and the count.
		const first, rec = 4 + 4 + 4, ip.TupleBytes + 24
		a := payload[at+first : at+first+rec]
		b := payload[at+first+rec : at+first+2*rec]
		tmp := bytes.Clone(a)
		copy(a, b)
		copy(b, tmp)
		return section, payload
	}
	t.Fatal("no UE tracks two PDCP flows")
	return "", nil
}
