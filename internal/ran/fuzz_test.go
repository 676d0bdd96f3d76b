package ran

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"outran/internal/ip"
	"outran/internal/metrics"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
	"outran/internal/workload"
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
	for _, edit := range []func(testing.TB, *Cell) (string, []byte){unsortedFlowTable, descendingKarn, oversizedFlow} {
		section, payload := edit(f, archiveShapes[0].build(f))
		f.Add(uint8(0), uint8(slices.Index(shapes[0].names, section)), payload)
	}
	// A cell replaying a trace file, and its cursor's hostile edits.
	trace := traceShape(f, f.TempDir())
	img, err := trace.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	names := sectionNames(f, img)
	shapes = append(shapes, seeded{trace.cfg, img, names})
	for _, payload := range cursorSeeds(f, trace, traceCursorEdits...) {
		f.Add(uint8(len(shapes)-1), uint8(slices.Index(names, "pending")), payload)
	}
	for _, payload := range cursorSeeds(f, archiveShapes[0].build(f), inflateCursor) {
		f.Add(uint8(0), uint8(slices.Index(shapes[0].names, "pending")), payload)
	}
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
			// A restored cell runs on: its clocks move the engine forward.
			fresh.Run(fresh.Eng.Now() + 10*sim.Millisecond)
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
		section = fmt.Sprintf("ue%d", i)
		payload = bytes.Clone(sections[section])
		at := bytes.Index(payload, snapshottest.Encode(ue.pdcpTx.Walk))
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

// oversizedFlow snapshots c and returns the section of the first UE with
// a live flow, that flow's size raised to 2^40: a flow StartFlow cannot
// have started, whose completion the FCT recorder could not keep.
func oversizedFlow(t testing.TB, c *Cell) (section string, payload []byte) {
	t.Helper()
	img, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sections := sectionBytes(t, img)
	for i, ue := range c.ues {
		tuples := make([]ip.FiveTuple, 0, len(ue.flows))
		for tuple := range ue.flows {
			tuples = append(tuples, tuple)
		}
		ip.SortTuples(tuples)
		for _, tuple := range tuples {
			head := snapshottest.Encode(func(w *snapshot.Walker) {
				w.Mark(tagFlow)
				tuple.Walk(w)
				w.I64(&ue.flows[tuple].size)
			})
			section = fmt.Sprintf("ue%d", i)
			payload = bytes.Clone(sections[section])
			at := bytes.Index(payload, head)
			if at < 0 {
				t.Fatalf("UE %d's flow %v is not in its section", i, tuple)
			}
			binary.LittleEndian.PutUint64(payload[at+len(head)-8:], metrics.SizeLimit)
			return section, payload
		}
	}
	t.Fatal("no UE has a live flow")
	return "", nil
}

// descendingKarn snapshots c and returns the section of the first UE
// whose first flow in tuple order has a sender holding two or more Karn
// send times, with its first two swapped: a descending pair, which a
// restore must reject.
func descendingKarn(t testing.TB, c *Cell) (section string, payload []byte) {
	t.Helper()
	img, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sections := sectionBytes(t, img)
	mss := int64(c.cfg.Transport.MSS)
	if mss == 0 {
		mss = 1400
	}
	for i, ue := range c.ues {
		tuples := make([]ip.FiveTuple, 0, len(ue.flows))
		for tuple := range ue.flows {
			tuples = append(tuples, tuple)
		}
		ip.SortTuples(tuples)
		for _, tuple := range tuples {
			walked := snapshottest.Encode(ue.flows[tuple].sender.Walk)
			// The send times end where the completed flag and three
			// counters begin: a count n, then n (seq, at) pairs whose seqs
			// step by the MSS.
			end := len(walked) - (1 + 3*8)
			for n := 2; 16*n+4 <= end; n++ {
				times := walked[end-16*n : end]
				if binary.LittleEndian.Uint32(walked[end-16*n-4:]) != uint32(n) || !mssSteps(times, mss) {
					continue
				}
				section = fmt.Sprintf("ue%d", i)
				payload = bytes.Clone(sections[section])
				at := bytes.Index(payload, walked) + end - 16*n
				first := bytes.Clone(payload[at : at+16])
				copy(payload[at:], payload[at+16:at+32])
				copy(payload[at+16:], first)
				return section, payload
			}
		}
	}
	t.Fatal("no sender holds two Karn send times")
	return "", nil
}

// mssSteps reports whether the seqs of the 16-byte (seq, at) pairs in
// times step by mss.
func mssSteps(times []byte, mss int64) bool {
	for i := 16; i < len(times); i += 16 {
		if int64(binary.LittleEndian.Uint64(times[i:]))-int64(binary.LittleEndian.Uint64(times[i-16:])) != mss {
			return false
		}
	}
	return true
}

// traceShape is the PF-UM-LTE shape replaying its own workload from a
// trace file written to dir, at its snapshot instant.
func traceShape(t testing.TB, dir string) *Cell {
	h := resumeScenario(SchedPF, UM)
	path := filepath.Join(dir, "workload.jsonl")
	var trace bytes.Buffer
	h.WorkloadTrace = &trace
	if _, err := h.Build(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	h.WorkloadTrace = nil
	h.Config = h.Config.WithWorkload(workload.ReplaySpec(path))
	return archiveShape{harness: func() Harness { return h }, mid: archiveShapes[0].mid}.build(t)
}

// traceCursorEdits are three edits of a trace-file replay's cursor a
// restore must reject with ErrCorrupt: more flows consumed than the
// schedule holds, a queued flow the rebuilt schedule does not hold
// there, and the digest of another trace file.
var traceCursorEdits = []func(cur *arrivalCursor){
	func(cur *arrivalCursor) { cur.fired = cur.n + 1 },
	func(cur *arrivalCursor) { cur.next.Size++ },
	func(cur *arrivalCursor) { cur.gen.traceSum[0] ^= 1 },
}

// inflateCursor grows a generated schedule's length by 2^40 and its span
// 2^30 times, a record whose rebuild would never finish: a restore must
// reject it with ErrCorrupt before generating anything.
func inflateCursor(cur *arrivalCursor) {
	cur.n += 1 << 40
	cur.gen.span <<= 30
}

// cursorSeeds returns c's pending section with its first arrival cursor
// changed by each edit in turn.
func cursorSeeds(t testing.TB, c *Cell, edits ...func(cur *arrivalCursor)) [][]byte {
	var out [][]byte
	for _, edit := range edits {
		cur := c.cursors[0]
		saved, gen := *cur, *cur.gen
		edit(cur)
		img, err := c.Snapshot()
		*cur, *saved.gen = saved, gen
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sectionBytes(t, img)["pending"])
	}
	return out
}

// TestRestoreRejectsCorruptCursors: FuzzRestoreSnapshot's cursor seeds
// each fail the restore with ErrCorrupt, and the unedited archives
// restore.
func TestRestoreRejectsCorruptCursors(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		checkCursorSeeds(t, traceShape(t, t.TempDir()), traceCursorEdits...)
	})
	t.Run("generated", func(t *testing.T) {
		checkCursorSeeds(t, archiveShapes[0].build(t), inflateCursor)
	})
}

// checkCursorSeeds restores c's archive unedited, which must succeed,
// and with each of cursorSeeds(edits), which must fail with ErrCorrupt.
func checkCursorSeeds(t *testing.T, c *Cell, edits ...func(cur *arrivalCursor)) {
	img, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func(pending []byte) error {
		a, err := snapshot.Open(reseal(t, img, func(name string, raw []byte) []byte {
			if name == "pending" && pending != nil {
				return pending
			}
			return raw
		}))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewCell(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.RestoreSnapshot(a)
	}
	if err := restore(nil); err != nil {
		t.Fatalf("unedited archive: %v", err)
	}
	for i, pending := range cursorSeeds(t, c, edits...) {
		if err := restore(pending); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("seed %d: restore error %v, want ErrCorrupt", i, err)
		}
	}
}
