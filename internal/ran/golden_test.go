package ran

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/workload"
)

// archiveShape is one mid-run cell whose checkpoint archive is pinned
// byte for byte: the golden table's rows and FuzzRestoreSnapshot's seeds.
type archiveShape struct {
	name    string
	harness func() Harness
	mid     sim.Time
	// check fails the test when the cell at mid does not hold the state
	// the shape exists to cover, so a digest can never pin a vacuous file.
	check func(t *testing.T, c *Cell)
	// sha256 of the archive, recorded on the commit before the snapshot
	// walk was rewritten (amd64). PF-UM-LTE's and OutRAN-AM-KPI-stream's
	// were re-recorded once when each armed timer came to own one queue
	// entry: only the engine section's processed count moved. All three
	// were re-recorded once more for snapshot version 2, when arrivals
	// became cursors: only the version and the pending section moved.
	sha256 string
}

// nrShape is OutRAN over RLC AM on the 5G grid, small enough to build
// quickly, loaded enough that HARQ and AM retransmission state is live.
func nrShape() Harness {
	cfg := Default5GConfig(phy.Mu1).ForScheduler(SchedOutRAN)
	cfg.NumUEs = 8
	cfg.RLC = AM
	cfg.Seed = 7
	return Harness{
		Config: cfg.WithWorkload(workload.PoissonSpec("mirage", 0.9)),
		Warmup: 100 * sim.Millisecond,
		Window: 400 * sim.Millisecond,
		Drain:  2 * sim.Second,
	}
}

// kpiStreamShape is the OutRAN + AM resume scenario with the KPI
// section and the streaming FCT recorder on.
func kpiStreamShape() Harness {
	h := resumeScenario(SchedOutRAN, AM)
	h.Config.KPIEvery = 100 * sim.Millisecond
	h.Config.StreamFCT = true
	return h
}

var archiveShapes = []archiveShape{
	{
		name:    "PF-UM-LTE",
		harness: func() Harness { return resumeScenario(SchedPF, UM) },
		mid:     433*sim.Millisecond + 137*sim.Microsecond,
		check: func(t *testing.T, c *Cell) {
			if c.ues[0].umTx == nil {
				t.Fatal("not a UM cell")
			}
			flows := 0
			for _, ue := range c.ues {
				flows += len(ue.flows)
			}
			if flows == 0 {
				t.Fatal("no live flows at the snapshot instant")
			}
		},
		sha256: "1c793161bde4dde9b77754a78e89f5da684afb394282a9cfbd6723de9d551a15",
	},
	{
		name:    "OutRAN-AM-NR",
		harness: nrShape,
		mid:     nrShapeMid,
		check: func(t *testing.T, c *Cell) {
			retx, status, onAir := 0, 0, 0
			var amRetx uint64
			for _, ue := range c.ues {
				retx += len(ue.harqPending)
				amRetx += ue.amTx.RetxBytes()
			}
			for _, en := range c.Eng.Entries() {
				if _, ok := en.H.(*Cell); !ok {
					continue
				}
				switch en.Ev.Kind {
				case evTB:
					onAir++
					if en.Ev.Ptr.(*harqTB).attempts > 0 {
						retx++
					}
				case evAMStatus:
					status++
				}
			}
			if retx == 0 || status == 0 || onAir == 0 || amRetx == 0 {
				t.Fatalf("HARQ retransmissions %d, AM statuses in flight %d, transport blocks on the air %d, AM retransmitted bytes %d; all must be non-zero", retx, status, onAir, amRetx)
			}
		},
		sha256: "45dde6af14a8204a6ffcb11bdc5658095e3050e36ec4ca6f15b6836af526d8bf",
	},
	{
		name:    "OutRAN-AM-KPI-stream",
		harness: kpiStreamShape,
		mid:     432 * sim.Millisecond,
		check: func(t *testing.T, c *Cell) {
			if c.kpi == nil || c.kpi.cum.Count() == 0 || c.FCT.Completed() == 0 {
				t.Fatal("no KPI or streaming-FCT state at the snapshot instant")
			}
		},
		sha256: "8e4c8d2eb7659d36ed96876f4ff1a1d73b383beb7d9e8742d3960cc1ed86b5a5",
	},
}

// nrShapeMid is an instant, half way into a TTI, at which the NR shape
// holds HARQ retransmissions, a transport block on the air and AM
// statuses in flight (its check asserts it).
const nrShapeMid = 168*sim.Millisecond + 250*sim.Microsecond

// build runs the shape to its snapshot instant, sampling KPIs on the
// way when the cell has them (sampling is part of the cell's state).
func (s archiveShape) build(t testing.TB) *Cell {
	h := s.harness()
	c, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	if every := h.Config.KPIEvery; every > 0 {
		for at := every; at <= s.mid; at += every {
			c.Run(at)
			c.SampleKPI(at)
		}
	}
	c.Run(s.mid)
	return c
}

// cityOpsShape is one city-ops cell: the benchmark's 12-UE × 25-RB
// mixed-traffic OutRAN cell, sampling KPIs every 100 ms into the
// streaming FCT recorder, at a fixed seed.
func cityOpsShape() Harness {
	mixed, _ := workload.Scenario("mixed", "lte", 0.7)
	cfg := DefaultLTEConfig().WithTopology(12, 25).WithWorkload(mixed).ForScheduler(SchedOutRAN)
	cfg.KPIEvery = 100 * sim.Millisecond
	cfg.StreamFCT = true
	return Harness{
		Config: cfg.WithSeed(3),
		Warmup: 500 * sim.Millisecond, Window: 5 * sim.Second, Drain: 3 * sim.Second,
	}
}

// cityOpsGoldens pin the city-ops cell's archive, and UE 0's handover
// blob, at two checkpoint instants, each with hundreds of PDCP flows
// tracked. Recorded on the commit before the PDCP flow table became a
// sorted slice (amd64); the archives were re-recorded once when each
// armed timer came to own one queue entry, which moved only the engine
// section's processed count, and once for snapshot version 2, which
// moved only the version and the pending section.
var cityOpsGoldens = []struct {
	at              sim.Time
	archive, export string
}{
	{2 * sim.Second,
		"395d45a9372d9c86ed8c981f3ed2fd72dbb451223c5fb7fe6b97aa5f9e80727c",
		"9a0d7ef4116b7c917395613d90ca12ef950be45398091198c7e6f1008e836705"},
	{4 * sim.Second,
		"0e660676ec657c95eb22891f2391e340ca8dbf0c773a015d1642bc724c7bae19",
		"4159e10ef6ff658bfb277aceb82945a72593ae274055a7d8904d5b5dd177bc27"},
}

// TestCityOpsArchiveGoldens: the checkpoint file and the flow-state
// export are byte-for-byte the ones the map-backed flow table wrote,
// but for the processed count, the version and the pending section
// (cityOpsGoldens).
func TestCityOpsArchiveGoldens(t *testing.T) {
	for _, g := range cityOpsGoldens {
		t.Run(g.at.String(), func(t *testing.T) {
			c := archiveShape{harness: cityOpsShape, mid: g.at}.build(t)
			flows := 0
			for _, ue := range c.ues {
				flows += ue.pdcpTx.FlowCount()
			}
			if flows < 400 {
				t.Fatalf("%d PDCP flows tracked at %v; the digest would pin too small a table", flows, g.at)
			}
			img, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOARCH != "amd64" {
				t.Skip("digests are recorded on amd64")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != g.archive {
				t.Errorf("archive digest %s (%d bytes, %d flows), parent commit wrote %s", got, len(img), flows, g.archive)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(c.ues[0].pdcpTx.ExportFlowState())); got != g.export {
				t.Errorf("UE 0 flow-state digest %s, parent commit wrote %s", got, g.export)
			}
		})
	}
}

// TestResumedCheckpointMatchesUninterrupted: the city-ops cell
// checkpointed at 2 s and restored into a fresh cell writes at 4 s the
// very archive the uninterrupted cell writes there, engine counters
// included — no event may fire in one run and not in the other, as the
// stale timer arms a checkpoint does not carry once did.
func TestResumedCheckpointMatchesUninterrupted(t *testing.T) {
	const mid, end = 2 * sim.Second, 4 * sim.Second
	h := cityOpsShape()
	// finish samples KPIs from mid to end and takes the checkpoint there.
	finish := func(c *Cell) []byte {
		for at := mid + h.Config.KPIEvery; at <= end; at += h.Config.KPIEvery {
			c.Run(at)
			c.SampleKPI(at)
		}
		img, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	uninterrupted := archiveShape{harness: cityOpsShape, mid: mid}.build(t)
	img, err := uninterrupted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreSnapshot(a); err != nil {
		t.Fatal(err)
	}
	want, got := finish(uninterrupted), finish(resumed)
	if !bytes.Equal(got, want) {
		t.Fatalf("at %v the resumed cell's archive (%d bytes, %d events processed) differs from the uninterrupted cell's (%d bytes, %d processed)",
			end, len(got), resumed.Eng.Processed(), len(want), uninterrupted.Eng.Processed())
	}
}

// TestArchiveGoldens pins the checkpoint bytes of every shape to the
// digest the parent of the walker rewrite wrote.
func TestArchiveGoldens(t *testing.T) {
	for _, s := range archiveShapes {
		t.Run(s.name, func(t *testing.T) {
			c := s.build(t)
			s.check(t, c)
			img, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOARCH != "amd64" {
				t.Skip("digests are recorded on amd64")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != s.sha256 {
				t.Errorf("archive digest %s (%d bytes), parent commit wrote %s", got, len(img), s.sha256)
			}
		})
	}
}
