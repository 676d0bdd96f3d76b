package deploy_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"outran/internal/deploy"
	"outran/internal/fault"
	"outran/internal/obs"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

const kpiCadence = 100 * sim.Millisecond

// kpiDeployment is smallDeployment with live KPI sampling into
// dir/kpi.jsonl at a 100 ms cadence.
func kpiDeployment(dir string, workers int) deploy.Config {
	cfg := smallDeployment(workers)
	cfg.Cell.KPIEvery = kpiCadence
	cfg.KPIPath = filepath.Join(dir, "kpi.jsonl")
	return cfg
}

func readKPIFile(t *testing.T, path string) ([]byte, []obs.KPIRecord) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("KPI stream is empty — the gate is vacuous")
	}
	recs, err := obs.ReadKPI(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return raw, recs
}

// TestKPIWorkerCountByteIdentity is the determinism gate for the KPI
// stream: 1 worker and 4 workers must write byte-identical files, and
// each instant must carry every cell in index order followed by one
// deployment roll-up.
func TestKPIWorkerCountByteIdentity(t *testing.T) {
	dir1, dir4 := t.TempDir(), t.TempDir()
	if _, err := deploy.Run(kpiDeployment(dir1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := deploy.Run(kpiDeployment(dir4, 4)); err != nil {
		t.Fatal(err)
	}
	raw1, recs := readKPIFile(t, filepath.Join(dir1, "kpi.jsonl"))
	raw4, _ := readKPIFile(t, filepath.Join(dir4, "kpi.jsonl"))
	if !bytes.Equal(raw1, raw4) {
		t.Fatalf("KPI streams differ between 1 and 4 workers (%d vs %d bytes)", len(raw1), len(raw4))
	}

	cfg := kpiDeployment(dir1, 1)
	perInstant := cfg.Cells + 1 // all cells + the roll-up
	if len(recs)%perInstant != 0 {
		t.Fatalf("%d records is not a multiple of %d (cells+rollup)", len(recs), perInstant)
	}
	// Horizon 700 ms at 100 ms cadence → 7 instants.
	if instants := len(recs) / perInstant; instants != 7 {
		t.Errorf("%d sampling instants, want 7", instants)
	}
	for i, r := range recs {
		wantCell := i % perInstant
		if wantCell == cfg.Cells {
			wantCell = obs.RollupCell
		}
		if r.Cell != wantCell {
			t.Fatalf("record %d: cell %d, want %d (cells must appear in index order, roll-up last)", i, r.Cell, wantCell)
		}
		wantT := sim.Time(i/perInstant+1) * kpiCadence
		if r.T != wantT {
			t.Fatalf("record %d: t=%v, want %v", i, r.T, wantT)
		}
	}
	// The roll-up must actually aggregate: its cumulative flow count at
	// the final instant equals the sum over cells.
	lastBlock := recs[len(recs)-perInstant:]
	var sum int64
	for _, r := range lastBlock[:cfg.Cells] {
		sum += r.CumFlows
	}
	if rollup := lastBlock[cfg.Cells]; rollup.CumFlows != sum || sum == 0 {
		t.Errorf("final roll-up cum_flows %d, want the per-cell sum %d (nonzero)", rollup.CumFlows, sum)
	}
}

// TestSingleCellKPINoRollup: a one-cell deployment's stream carries the
// cell-0 records only — a roll-up over one cell would repeat each of
// them, and outran-sim's single-cell stream never had one.
func TestSingleCellKPINoRollup(t *testing.T) {
	cfg := kpiDeployment(t.TempDir(), 1)
	cfg.Cells = 1
	cfg.Handovers = nil
	if _, err := deploy.Run(cfg); err != nil {
		t.Fatal(err)
	}
	_, recs := readKPIFile(t, cfg.KPIPath)
	// Horizon 700 ms at 100 ms cadence → 7 instants, one record each.
	if len(recs) != 7 {
		t.Fatalf("%d records, want 7 (one per instant, no roll-up)", len(recs))
	}
	for i, r := range recs {
		if r.Cell != 0 {
			t.Errorf("record %d: cell %d, want 0", i, r.Cell)
		}
	}
}

// kpiCheckpointedDeployment adds KPI sampling to the checkpointed
// fixture shared with the resume tests.
func kpiCheckpointedDeployment(dir string, retain int) deploy.Config {
	cfg := checkpointedDeployment(dir, retain)
	cfg.Cell.KPIEvery = kpiCadence
	cfg.KPIPath = filepath.Join(dir, "kpi.jsonl")
	return cfg
}

// TestKPIResumeByteIdentity is the crash-resume gate for the KPI
// stream: kill a checkpointed deployment after the 300 ms barrier
// (with the stream holding records past the checkpoint, plus a torn
// trailing line), Resume, and require the final file byte-identical to
// the uninterrupted run's.
func TestKPIResumeByteIdentity(t *testing.T) {
	dirA := t.TempDir()
	if _, err := deploy.Run(kpiCheckpointedDeployment(dirA, 100)); err != nil {
		t.Fatal(err)
	}
	ref, _ := readKPIFile(t, filepath.Join(dirA, "kpi.jsonl"))

	dirB := t.TempDir()
	cfgB := kpiCheckpointedDeployment(dirB, 100)
	if _, err := deploy.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	kill := 300 * sim.Millisecond
	for cell := 0; cell < cfgB.Cells; cell++ {
		for at, f := range mustCheckpointFiles(t, cfgB.Checkpoint.Dir, cell) {
			if at > kill {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A real kill can leave a torn final line; Resume's truncation must
	// erase it along with the post-checkpoint records.
	f, err := os.OpenFile(cfgB.KPIPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"t":999,"ce`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := deploy.Resume(cfgB); err != nil {
		t.Fatal(err)
	}
	got, _ := readKPIFile(t, cfgB.KPIPath)
	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed KPI stream differs from uninterrupted run (%d vs %d bytes)", len(ref), len(got))
	}
}

// TestKPICrashReplayByteIdentity: a scripted worker crash at an
// instant that is not a KPI barrier restores the cell from its latest
// checkpoint and must replay the lost KPI windows without duplicating
// or skewing any record — the stream stays byte-identical to the
// crash-free run.
func TestKPICrashReplayByteIdentity(t *testing.T) {
	dirA := t.TempDir()
	if _, err := deploy.Run(kpiCheckpointedDeployment(dirA, 2)); err != nil {
		t.Fatal(err)
	}
	ref, _ := readKPIFile(t, filepath.Join(dirA, "kpi.jsonl"))

	dirB := t.TempDir()
	cfgB := kpiCheckpointedDeployment(dirB, 2)
	cfgB.Crashes = []fault.Event{{
		Kind:  fault.WorkerCrash,
		UE:    1, // cell index
		Start: 420 * sim.Millisecond,
	}}
	res, err := deploy.Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restores != 1 {
		t.Errorf("crash run performed %d restores, want 1", res.Restores)
	}
	got, _ := readKPIFile(t, cfgB.KPIPath)
	if !bytes.Equal(ref, got) {
		t.Fatalf("crash-recovered KPI stream differs from crash-free run (%d vs %d bytes)", len(ref), len(got))
	}
}

// TestKPIValidation: a KPI path without a sampling cadence must be
// rejected up front.
func TestKPIValidation(t *testing.T) {
	cfg := smallDeployment(1)
	cfg.KPIPath = filepath.Join(t.TempDir(), "kpi.jsonl")
	if _, err := deploy.Run(cfg); err == nil {
		t.Fatal("KPIPath without Cell.KPIEvery was accepted")
	}
}

// checkpointGoldenSHA256 are the sha256 digests of the two cells'
// 300 ms checkpoint files TestCheckpointFileGolden writes, recorded on
// the commit before the snapshot walk was rewritten (amd64). Cell 1's
// was re-recorded once when each armed timer came to own one queue
// entry: only its engine section's processed count moved. Both were
// re-recorded for snapshot version 2: the version and the pending
// section moved, and with the files' sizes the checkpoint_bytes gauge
// in the metrics section.
var checkpointGoldenSHA256 = [2]string{
	"5d92a210160690c4881728fcec29ce9dba861ea569befcf93be10e40ef325a25",
	"581158c99395aedd8e11e37951f58eb507a9b4367d33fb6fae9d51cce4fe17dc",
}

// TestCheckpointFileGolden pins the bytes of a deployment checkpoint
// file — cell sections with the kpi section and the streaming FCT
// recorder, plus the deploy section carrying a trace and a KPI offset —
// to the parent's.
func TestCheckpointFileGolden(t *testing.T) {
	dir := t.TempDir()
	cfg := kpiCheckpointedDeployment(dir, 100)
	cfg.Cells = 2
	if _, err := deploy.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for cell, want := range checkpointGoldenSHA256 {
		path := mustCheckpointFiles(t, cfg.Checkpoint.Dir, cell)[300*sim.Millisecond]
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a, err := snapshot.Open(img)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := deploy.ReadCheckpointMeta(a)
		if err != nil {
			t.Fatal(err)
		}
		if meta.At != 300*sim.Millisecond || meta.TraceOffset <= 0 || meta.KPIOffset <= 0 || !a.Has("kpi") {
			t.Fatalf("cell %d: meta %+v, kpi section %v; the file would pin nothing", cell, meta, a.Has("kpi"))
		}
		if runtime.GOARCH != "amd64" {
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != want {
			t.Errorf("cell %d checkpoint digest %s (%d bytes), parent commit wrote %s", cell, got, len(img), want)
		}
	}
}
