package fault

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// chaosParts is one chaos run: the built cell and the handles the
// chaos harness attached to it.
type chaosParts struct {
	cell *ran.Cell
	*Chaos
}

const (
	chaosDuration = 800 * sim.Millisecond
	chaosDrain    = 4 * sim.Second
)

// chaosConfig is the snapshot scenario: OutRAN, AM, intensity 1.
var chaosConfig = RunConfig{
	Cell:      chaosCell(ran.SchedOutRAN, ran.AM),
	Duration:  chaosDuration,
	Drain:     chaosDrain,
	Intensity: 1,
	Seed:      42,
}

// buildChaos builds the snapshot scenario's cell, not yet run.
func buildChaos(t *testing.T) chaosParts {
	t.Helper()
	h, ch := chaosConfig.Harness()
	cell, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	return chaosParts{cell, ch}
}

func (p chaosParts) finish() Result {
	p.cell.Run(chaosDuration + chaosDrain)
	return p.Result(p.cell)
}

// TestChaosResumeEquivalence extends the resume-equivalence gate to
// runs with the full chaos layer attached: mid-run snapshot of cell +
// injector + monitor, restore into fresh instances, identical FCT
// trace, stats, injector stats and monitor report at the end. The
// snapshot lands mid-plan, so active fault accumulators, the pending
// apply/revert transitions and the injector's rng position all cross
// the checkpoint.
func TestChaosResumeEquivalence(t *testing.T) {
	ref := buildChaos(t).finish()
	if len(ref.Samples) == 0 {
		t.Fatal("no flows completed under chaos")
	}
	if ref.Injector == (InjectorStats{}) {
		t.Fatal("chaos did not bite; the scenario exercises nothing")
	}

	// Same run, interrupted mid-plan.
	p := buildChaos(t)
	mid := 300 * sim.Millisecond
	p.cell.Run(mid)
	var b snapshot.Builder
	if err := p.cell.SnapshotTo(&b); err != nil {
		t.Fatalf("cell snapshot: %v", err)
	}
	p.Injector.SnapshotTo(&b)
	p.Monitor.SnapshotTo(&b)
	a, err := snapshot.Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Fresh process: rebuild from config + seeds, overlay the snapshot.
	_, ch := chaosConfig.Harness()
	cell2, err := ch.Resume(a)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	res := chaosParts{cell2, ch}.finish()

	if len(ref.Samples) != len(res.Samples) {
		t.Fatalf("uninterrupted chaos run completed %d flows, resumed %d", len(ref.Samples), len(res.Samples))
	}
	for i := range ref.Samples {
		if ref.Samples[i] != res.Samples[i] {
			t.Fatalf("FCT trace diverges at flow %d: %+v vs %+v", i, ref.Samples[i], res.Samples[i])
		}
	}
	if ref.Stats != res.Stats {
		t.Fatalf("stats differ:\n uninterrupted: %+v\n resumed:       %+v", ref.Stats, res.Stats)
	}
	if ref.Injector != res.Injector {
		t.Fatalf("injector stats differ:\n uninterrupted: %+v\n resumed:       %+v", ref.Injector, res.Injector)
	}
	if !reflect.DeepEqual(ref.Monitor, res.Monitor) {
		t.Fatalf("monitor reports differ:\n uninterrupted: %+v\n resumed:       %+v", ref.Monitor, res.Monitor)
	}
}

// chaosGoldenSHA256 is the sha256 of the archive TestChaosArchiveGolden
// takes, recorded on the commit before the snapshot walk was rewritten
// (amd64), and re-recorded once when each armed timer came to own one
// queue entry: only the engine section's processed count moved; and once
// for snapshot version 2: only the version and the pending section
// moved.
const chaosGoldenSHA256 = "03713d45f14de7f03ef63541298a3dec7b471eab436fee81fb00d163ea61b5b9"

// TestChaosArchiveGolden pins the bytes of a chaos checkpoint — the
// cell's sections with plan transitions still pending as external
// events, plus the injector and monitor sections — to the parent's.
func TestChaosArchiveGolden(t *testing.T) {
	p := buildChaos(t)
	const mid = 520 * sim.Millisecond // a CQI blackout is active, PDU drops are behind, most of the plan ahead
	p.cell.Run(mid)
	pending := 0
	for _, ev := range p.Plan {
		if ev.Kind != WorkerCrash && (ev.Start > mid || (ev.Kind != ForceRLF && ev.End() > mid)) {
			pending++
		}
	}
	if pending == 0 || p.Injector.Stats() == (InjectorStats{}) || p.Monitor.report.Checks == 0 {
		t.Fatalf("%d plan transitions pending, injector stats %+v, %d monitor checks; the archive would pin nothing",
			pending, p.Injector.Stats(), p.Monitor.report.Checks)
	}
	var b snapshot.Builder
	if err := p.cell.SnapshotTo(&b); err != nil {
		t.Fatal(err)
	}
	p.Injector.SnapshotTo(&b)
	p.Monitor.SnapshotTo(&b)
	img := b.Bytes()
	if runtime.GOARCH != "amd64" {
		t.Skip("digest is recorded on amd64")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != chaosGoldenSHA256 {
		t.Errorf("archive digest %s (%d bytes), parent commit wrote %s", got, len(img), chaosGoldenSHA256)
	}
}

// TestWalkRoundTrip: the injector and the monitor of a chaos run caught
// mid-plan — a violation on the monitor's report included — survive
// encode -> decode -> encode byte for byte.
func TestWalkRoundTrip(t *testing.T) {
	p := buildChaos(t)
	p.cell.Run(520 * sim.Millisecond)
	p.Monitor.violate("test-rule", "a violation, so the report's records are walked too")
	fresh := buildChaos(t)
	snapshottest.RoundTrip(t, p.Injector.walk, fresh.Injector.walk)
	snapshottest.RoundTrip(t, p.Monitor.walk, fresh.Monitor.walk)
	if !reflect.DeepEqual(p.Monitor.report, fresh.Monitor.report) || len(fresh.Monitor.seen) == 0 {
		t.Fatalf("restored monitor differs: %+v vs %+v (%d seen)", p.Monitor.report, fresh.Monitor.report, len(fresh.Monitor.seen))
	}
}

// TestViolationFieldsWalked: every field of a violation is checkpoint
// state.
func TestViolationFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*Violation).walk, nil)
}

// TestMonitorRejectsCountBeyondInput: a CRC-valid section a few bytes
// long that claims the maximum number of seen SDU ids fails before
// anything is sized from the claim.
func TestMonitorRejectsCountBeyondInput(t *testing.T) {
	var e snapshot.Encoder
	e.Mark(tagMonitor)
	e.I64(0)
	e.Bool(true)
	e.U32(1 << 28)
	var b snapshot.Builder
	b.Add(SectionMonitor, &e)
	a, err := snapshot.Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mon := buildChaos(t).Monitor
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = mon.RestoreFrom(a)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("restore error = %v, want snapshot.ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("restore allocated %d bytes on the way to failing, want < 1 MiB", got)
	}
}

// TestInjectorRestoreErrors: truncated or foreign sections surface as
// wrapped errors, never panics.
func TestInjectorRestoreErrors(t *testing.T) {
	p := buildChaos(t)
	p.cell.Run(100 * sim.Millisecond)
	var b snapshot.Builder
	p.Injector.SnapshotTo(&b)
	p.Monitor.SnapshotTo(&b)
	a, err := snapshot.Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Restore into an injector with a different UE count.
	small := smallCell(ran.SchedOutRAN, ran.AM)
	small.NumUEs = 3
	cellSmall, err := ran.NewCell(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewInjector(cellSmall, 1).RestoreFrom(a); err == nil {
		t.Fatal("UE-count mismatch restored cleanly; want error")
	}
	if err := NewMonitor(cellSmall).RestoreFrom(a); err == nil {
		t.Fatal("monitor UE-count mismatch restored cleanly; want error")
	}

	// A section that is missing entirely.
	var empty snapshot.Builder
	var e snapshot.Encoder
	e.U64(1)
	empty.Add("unrelated", &e)
	a2, err := snapshot.Open(empty.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cell3, err := ran.NewCell(smallCell(ran.SchedOutRAN, ran.AM))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewInjector(cell3, 1).RestoreFrom(a2); err == nil {
		t.Fatal("missing injector section restored cleanly; want error")
	}
	if err := NewMonitor(cell3).RestoreFrom(a2); err == nil {
		t.Fatal("missing monitor section restored cleanly; want error")
	}
}
