package ran

import (
	"runtime"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
)

// parentEncodeBytes is what one Cell.Snapshot of the city-ops cell
// allocated at each instant on the commit before archives were encoded
// in place and the PDCP flow table became a sorted slice (amd64).
var parentEncodeBytes = []struct {
	at    sim.Time
	bytes uint64
}{
	{2 * sim.Second, 781936},
	{4 * sim.Second, 676488},
}

// TestKeptBuilderEncodeAllocs: encoding the city-ops cell into a builder
// kept from the previous checkpoint, as the deployment's checkpointer
// does, allocates at most a quarter of what the parent's encode did. The
// bytes left are the walks' own scratch (the queued-entry copy, the
// sorted map keys), not the archive.
func TestKeptBuilderEncodeAllocs(t *testing.T) {
	for _, p := range parentEncodeBytes {
		t.Run(p.at.String(), func(t *testing.T) {
			c := archiveShape{harness: cityOpsShape, mid: p.at}.build(t)
			var b snapshot.Builder
			encode := func() {
				b.Reset()
				if err := c.SnapshotTo(&b); err != nil {
					t.Fatal(err)
				}
				b.Bytes()
			}
			encode()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			encode()
			runtime.ReadMemStats(&after)
			if got, budget := after.TotalAlloc-before.TotalAlloc, p.bytes/4; got > budget {
				t.Fatalf("a kept-builder encode allocated %d bytes, budget %d (a quarter of the parent's %d)", got, budget, p.bytes)
			}
		})
	}
}

// BenchmarkCellSnapshot prices one checkpoint encode of the city-ops
// cell at two instants, into a builder kept across encodes.
func BenchmarkCellSnapshot(b *testing.B) {
	for _, p := range parentEncodeBytes {
		b.Run(p.at.String(), func(b *testing.B) {
			c := archiveShape{harness: cityOpsShape, mid: p.at}.build(b)
			var sb snapshot.Builder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb.Reset()
				if err := c.SnapshotTo(&sb); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(sb.Bytes())))
			}
		})
	}
}

// BenchmarkCellRestore prices one restore of the city-ops cell as the
// deployment pays it — NewCell, snapshot.Open, RestoreSnapshot — from a
// checkpoint taken mid-arrivals (2 s, the schedule rebuilt and skipped
// to its queued flow) and one taken after the last arrival (8 s,
// nothing rebuilt).
func BenchmarkCellRestore(b *testing.B) {
	for _, at := range []sim.Time{2 * sim.Second, 8 * sim.Second} {
		b.Run(at.String(), func(b *testing.B) {
			h := cityOpsShape()
			img, err := archiveShape{harness: cityOpsShape, mid: at}.build(b).Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(img)))
			for i := 0; i < b.N; i++ {
				c, err := NewCell(h.Config)
				if err != nil {
					b.Fatal(err)
				}
				a, err := snapshot.Open(img)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.RestoreSnapshot(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
