package ran

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"outran/internal/phy"
	"outran/internal/rlc"
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
	// became cursors: only the version and the pending section moved;
	// for version 3, when the open fairness block moved from the cell
	// section into the tracker's: only the version, the cell section and
	// the metrics section moved; and for version 4, when the clock ticks
	// moved from the engine section into the pending section and the RLC
	// buffers' drop counter left the UE sections: only the version and
	// those sections moved. Version 5 re-recorded all three: the RLC
	// receivers' give-up rules changed what runs produce. Version 6 did
	// again: the version and the config fingerprint (one transport
	// field now) moved in each, RLC AM's status and poll triggers changed
	// the AM shapes' runs, and the NR shape's instant moved to where its
	// check holds under them.
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
			if _, um := c.ues[0].tx.(*rlc.UMTx); !um {
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
		sha256: "745838b598aa133ad8b8a919a97baf5981bd6ce0b34c75008d1ff4ec902e9172",
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
				amRetx += ue.tx.RetxBytes()
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
		sha256: "2046c9cb8910af286bbd396bbfe5b21bf2cfe0d34efe3200ed66fab25e0b03a0",
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
		sha256: "d62229af01523a5dcdd404b8faba08fe3b022ad52911f68adff76e25535edca7",
	},
}

// nrShapeMid is an instant, half way into a TTI, at which the NR shape
// holds HARQ retransmissions, a transport block on the air and AM
// statuses in flight, after its first AM retransmission (its check
// asserts it).
const nrShapeMid = 404*sim.Millisecond + 750*sim.Microsecond

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
// section's processed count, once for snapshot version 2, which moved
// only the version and the pending section, once for version 3, which
// moved the open fairness block from the cell section into the metrics
// section, and once for version 4, which moved the clock ticks from the
// engine section into the pending section and took the RLC buffers'
// drop counter out of the UE sections. Version 5's RLC give-up rules
// changed the simulation, so both archives moved with it; the handover
// blobs did not. Version 6 moved only the version and the config
// fingerprint, which lists one transport field now, in both archives:
// the shape runs UM, which RLC AM's status and poll triggers leave as it
// was.
var cityOpsGoldens = []struct {
	at              sim.Time
	archive, export string
}{
	{2 * sim.Second,
		"f1ccd8b56ce705d985d35b55c713995b9a3702f712f9620bcbd7db2b2aed5599",
		"9a0d7ef4116b7c917395613d90ca12ef950be45398091198c7e6f1008e836705"},
	{4 * sim.Second,
		"2980f70c0b154ac8b4c4f00e88430f8ff112888fd31145844ed3ddd6446b8773",
		"4159e10ef6ff658bfb277aceb82945a72593ae274055a7d8904d5b5dd177bc27"},
}

// TestCityOpsArchiveGoldens: the checkpoint file and the flow-state
// export are byte-for-byte the ones the map-backed flow table wrote,
// but for the re-recordings cityOpsGoldens lists.
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
