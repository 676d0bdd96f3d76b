package deploy_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/deploy"
	"outran/internal/sim"
)

// checkpointedDeployment is smallDeployment with checkpointing: four
// cells, a mid-run handover (no ContinueBytes — persistent connections
// cannot be checkpointed), runtime-owned traces, 150 ms cadence.
func checkpointedDeployment(dir string, retain int) deploy.Config {
	cfg := smallDeployment(0)
	cfg.Handovers[0].ContinueBytes = 0
	cfg.Checkpoint = deploy.CheckpointConfig{
		Dir:    filepath.Join(dir, "ck"),
		Every:  150 * sim.Millisecond,
		Retain: retain,
	}
	cfg.TracePath = tracePathIn(dir)
	return cfg
}

// tracePathIn is the TracePath whose per-cell files
// (dir/trace.cellN.jsonl) outcomeOf reads back.
func tracePathIn(dir string) string { return filepath.Join(dir, "trace.jsonl") }

// deployOutcome flattens a deployment result plus its trace files into
// comparable bytes.
type deployOutcome struct {
	cells  [][]byte
	traces [][]byte
	agg    []byte
}

func outcomeOf(t *testing.T, dir string, res *deploy.Result) deployOutcome {
	t.Helper()
	var out deployOutcome
	for _, c := range res.Cells {
		b, err := json.Marshal(c.Summary)
		if err != nil {
			t.Fatal(err)
		}
		out.cells = append(out.cells, b)
	}
	for i := range res.Cells {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("trace.cell%d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("cell %d trace is empty — the gate is vacuous", i)
		}
		out.traces = append(out.traces, b)
	}
	b, err := json.Marshal(res.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	out.agg = b
	return out
}

func compareOutcomes(t *testing.T, want, got deployOutcome, label string) {
	t.Helper()
	for i := range want.cells {
		if !bytes.Equal(want.cells[i], got.cells[i]) {
			t.Errorf("%s: cell %d summary differs:\n  want %s\n  got  %s", label, i, want.cells[i], got.cells[i])
		}
		if !bytes.Equal(want.traces[i], got.traces[i]) {
			t.Errorf("%s: cell %d trace differs (%d vs %d bytes)", label, i, len(want.traces[i]), len(got.traces[i]))
		}
	}
	if !bytes.Equal(want.agg, got.agg) {
		t.Errorf("%s: aggregate differs:\n  want %s\n  got  %s", label, want.agg, got.agg)
	}
}

// mustCheckpointFiles lists one cell's checkpoints with their instants.
func mustCheckpointFiles(t *testing.T, dir string, cell int) map[sim.Time]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("cell%d-*.ckpt", cell)))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[sim.Time]string, len(files))
	for _, f := range files {
		var c int
		var ns int64
		if _, err := fmt.Sscanf(filepath.Base(f), "cell%d-%d.ckpt", &c, &ns); err != nil {
			t.Fatalf("malformed checkpoint name %q: %v", f, err)
		}
		out[sim.Time(ns)] = f
	}
	return out
}

// TestDeployResumeEquivalence is the deployment-level crash-resume
// acceptance gate: run a 4-cell checkpointed deployment to completion,
// then take an identically configured deployment, "kill" it just after
// the 300 ms checkpoint barrier (drop every newer checkpoint file, as
// a real kill would have never written them), and Resume. Per-cell
// summaries, traces and the aggregate must be byte-identical.
func TestDeployResumeEquivalence(t *testing.T) {
	dirA := t.TempDir()
	resA, err := deploy.Run(checkpointedDeployment(dirA, 100))
	if err != nil {
		t.Fatal(err)
	}
	outA := outcomeOf(t, dirA, resA)

	dirB := t.TempDir()
	cfgB := checkpointedDeployment(dirB, 100)
	if _, err := deploy.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	// Simulate the kill: the process died after the 300 ms barrier, so
	// checkpoints newer than 300 ms never reached disk. The trace files
	// keep whatever was flushed — Resume truncates them back.
	kill := 300 * sim.Millisecond
	for cell := 0; cell < cfgB.Cells; cell++ {
		files := mustCheckpointFiles(t, cfgB.Checkpoint.Dir, cell)
		if _, ok := files[kill]; !ok {
			t.Fatalf("cell %d has no checkpoint at %v (have %v)", cell, kill, files)
		}
		for at, f := range files {
			if at > kill {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	resB, err := deploy.Resume(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Restores != cfgB.Cells {
		t.Errorf("Resume restored %d cells, want %d", resB.Restores, cfgB.Cells)
	}
	compareOutcomes(t, outA, outcomeOf(t, dirB, resB), "resume")
}

// TestDeployCrashRecovery: the process dies at 420 ms, between the
// 300 ms and 450 ms barriers, so the segment since the last barrier is
// lost. Resume restores every cell from its 300 ms checkpoint and
// recomputes that segment; the deployment summary and every trace must
// be byte-identical to the crash-free same-seed run.
func TestDeployCrashRecovery(t *testing.T) {
	dirA := t.TempDir()
	resA, err := deploy.Run(checkpointedDeployment(dirA, 100))
	if err != nil {
		t.Fatal(err)
	}
	outA := outcomeOf(t, dirA, resA)

	dirB := t.TempDir()
	cfgB := checkpointedDeployment(dirB, 100)
	if _, err := deploy.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	crash := 420 * sim.Millisecond
	for cell := 0; cell < cfgB.Cells; cell++ {
		files := mustCheckpointFiles(t, cfgB.Checkpoint.Dir, cell)
		if _, ok := files[300*sim.Millisecond]; !ok {
			t.Fatalf("cell %d has no checkpoint at 300ms (have %v)", cell, files)
		}
		for at, f := range files {
			if at == crash {
				t.Fatalf("cell %d has a checkpoint at the crash instant %v", cell, crash)
			}
			if at > crash {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	resB, err := deploy.Resume(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Restores != cfgB.Cells {
		t.Errorf("crash recovery restored %d cells, want %d", resB.Restores, cfgB.Cells)
	}
	compareOutcomes(t, outA, outcomeOf(t, dirB, resB), "crash recovery")

	// The live summaries must not leak the recovery either: restore
	// counts are deliberately kept out of the registry.
	for _, c := range resB.Cells {
		for name := range c.Summary.Metrics {
			if name == "checkpoint_restores" {
				t.Errorf("cell %d exports %q; restores must stay out of the byte-compared summary", c.Cell, name)
			}
		}
	}
}

// TestCheckpointMetricsInSummary: a checkpointed run surfaces cadence,
// write count and latest-snapshot size through the cell registry.
func TestCheckpointMetricsInSummary(t *testing.T) {
	dir := t.TempDir()
	res, err := deploy.Run(checkpointedDeployment(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Horizon 700 ms at 150 ms cadence → barriers at 150/300/450/600.
	for _, c := range res.Cells {
		m := c.Summary.Metrics
		if got := m["checkpoint_period_s"]; got != 0.15 {
			t.Errorf("cell %d checkpoint_period_s = %v, want 0.15", c.Cell, got)
		}
		if got := m["checkpoint_writes"]; got != 4 {
			t.Errorf("cell %d checkpoint_writes = %v, want 4", c.Cell, got)
		}
		if got := m["checkpoint_bytes"]; got <= 0 {
			t.Errorf("cell %d checkpoint_bytes = %v, want > 0", c.Cell, got)
		}
	}
	// Retention: only the newest 2 files per cell remain.
	for cell := 0; cell < 4; cell++ {
		files := mustCheckpointFiles(t, filepath.Join(dir, "ck"), cell)
		if len(files) != 2 {
			t.Errorf("cell %d retains %d checkpoints, want 2", cell, len(files))
		}
		for _, at := range []sim.Time{450 * sim.Millisecond, 600 * sim.Millisecond} {
			if _, ok := files[at]; !ok {
				t.Errorf("cell %d: newest checkpoints missing %v (have %v)", cell, at, files)
			}
		}
	}
}

// TestCheckpointRetentionAcrossResume is the regression gate for the
// resume-then-checkpoint retention bug: when Resume writes new
// checkpoints into a directory still holding pre-crash files, stale
// files from later-than-resume instants must be removed (the resumed
// lineage never produced them), not counted toward Retain. Before the
// fix, the rewritten instants entered the retention list twice and
// the positional prune deleted files still referenced by later
// entries — a 4-barrier run with Retain=3 ended with a single file on
// disk.
func TestCheckpointRetentionAcrossResume(t *testing.T) {
	dirA := t.TempDir()
	resA, err := deploy.Run(checkpointedDeployment(dirA, 3))
	if err != nil {
		t.Fatal(err)
	}
	outA := outcomeOf(t, dirA, resA)

	dirB := t.TempDir()
	cfgB := checkpointedDeployment(dirB, 3)
	if _, err := deploy.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	// Kill scenario: cell 0's newer checkpoints are gone (the worker
	// died first), the other cells were "a file ahead" and still hold
	// files past the shared resume instant — exactly the stale state
	// Resume must clean up.
	kill := 300 * sim.Millisecond
	for at, f := range mustCheckpointFiles(t, cfgB.Checkpoint.Dir, 0) {
		if at > kill {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	resB, err := deploy.Resume(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	compareOutcomes(t, outA, outcomeOf(t, dirB, resB), "retention resume")

	// Retention invariant: barriers at 150/300/450/600 ms with Retain=3
	// leave exactly {300, 450, 600} on disk for every cell — the stale
	// pre-crash 450/600 files were replaced by the resumed lineage's
	// rewrites, never double-counted.
	want := []sim.Time{300 * sim.Millisecond, 450 * sim.Millisecond, 600 * sim.Millisecond}
	for cell := 0; cell < cfgB.Cells; cell++ {
		files := mustCheckpointFiles(t, cfgB.Checkpoint.Dir, cell)
		if len(files) != len(want) {
			t.Errorf("cell %d retains %d checkpoints after resume, want %d (%v)", cell, len(files), len(want), files)
		}
		for _, at := range want {
			if _, ok := files[at]; !ok {
				t.Errorf("cell %d: checkpoint at %v missing after resume (have %v)", cell, at, files)
			}
		}
	}
}

// TestCheckpointValidation covers the checkpoint configuration error
// paths.
func TestCheckpointValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*deploy.Config)
	}{
		{"ContinueBytes with checkpointing", func(c *deploy.Config) {
			c.Handovers[0].ContinueBytes = 32 << 10
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := checkpointedDeployment(t.TempDir(), 2)
			tc.mut(&cfg)
			if _, err := deploy.Run(cfg); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}

	t.Run("resume without checkpointing", func(t *testing.T) {
		cfg := smallDeployment(0)
		if _, err := deploy.Resume(cfg); err == nil {
			t.Fatal("want error, got nil")
		}
	})
	t.Run("resume without checkpoint files", func(t *testing.T) {
		cfg := checkpointedDeployment(t.TempDir(), 2)
		if err := os.MkdirAll(cfg.Checkpoint.Dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := deploy.Resume(cfg); err == nil {
			t.Fatal("want error, got nil")
		}
	})
}

// TestCheckpointedParallelSerialEquivalence extends the worker-count
// determinism gate to checkpointed runs: 1 worker and 4 workers must
// write byte-identical checkpoints, summaries and traces.
func TestCheckpointedParallelSerialEquivalence(t *testing.T) {
	run := func(workers int) (deployOutcome, string) {
		dir := t.TempDir()
		cfg := checkpointedDeployment(dir, 2)
		cfg.Workers = workers
		res, err := deploy.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcomeOf(t, dir, res), cfg.Checkpoint.Dir
	}
	serial, serialDir := run(1)
	parallel, parallelDir := run(4)
	compareOutcomes(t, serial, parallel, "workers")
	for cell := 0; cell < 4; cell++ {
		sf := mustCheckpointFiles(t, serialDir, cell)
		pf := mustCheckpointFiles(t, parallelDir, cell)
		if len(sf) != len(pf) {
			t.Fatalf("cell %d: %d vs %d checkpoint files", cell, len(sf), len(pf))
		}
		for at, f := range sf {
			pb, err := os.ReadFile(pf[at])
			if err != nil {
				t.Fatal(err)
			}
			sb, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, pb) {
				t.Errorf("cell %d checkpoint at %v differs between worker counts", cell, at)
			}
		}
	}
}

// TestProfileSurvivesResume: Config.Profile installs the phase profiler
// on build and on restore, so a resumed run reports phases too — and,
// being host timing only, it leaves summaries and traces byte-identical
// to the unprofiled run's.
func TestProfileSurvivesResume(t *testing.T) {
	dirA := t.TempDir()
	resA, err := deploy.Run(checkpointedDeployment(dirA, 100))
	if err != nil {
		t.Fatal(err)
	}
	if p := resA.Live[0].PhaseProfiler(); p != nil {
		t.Fatalf("unprofiled run carries a phase profiler: %v", p.NsPerTTI())
	}

	dirB := t.TempDir()
	cfgB := checkpointedDeployment(dirB, 100)
	cfgB.Profile = true
	if _, err := deploy.Run(cfgB); err != nil {
		t.Fatal(err)
	}
	resB, err := deploy.Resume(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range resB.Live {
		if len(c.PhaseProfiler().NsPerTTI()) == 0 {
			t.Errorf("cell %d lost its phase profiler across Resume", i)
		}
	}
	// The profiled summaries differ from the reference only in the
	// wall-clock phases block; drop it before comparing.
	for i := range resB.Cells {
		resB.Cells[i].Summary.Phases = nil
	}
	compareOutcomes(t, outcomeOf(t, dirA, resA), outcomeOf(t, dirB, resB), "profiled resume")
}

// TestTraceFlushErrorFailsRun: a trace whose final flush fails (the
// sink's sticky write error surfaces at Close) must fail the run, not
// return success beside a truncated file.
func TestTraceFlushErrorFailsRun(t *testing.T) {
	const full = "/dev/full"
	if f, err := os.OpenFile(full, os.O_WRONLY, 0); err != nil {
		t.Skipf("%s not available: %v", full, err)
	} else {
		f.Close()
	}
	dir := t.TempDir()
	if err := os.Symlink(full, filepath.Join(dir, "t.cell2.jsonl")); err != nil {
		t.Fatal(err)
	}
	cfg := smallDeployment(1)
	cfg.TracePath = filepath.Join(dir, "t.jsonl")
	if _, err := deploy.Run(cfg); err == nil {
		t.Fatal("deploy.Run succeeded although cell 2's trace could not be written")
	} else if !strings.Contains(err.Error(), "cell 2 trace") {
		t.Fatalf("error does not name the failed trace: %v", err)
	}
}

// TestFreshRunDropsEarlierCheckpoints: a fresh Run owns none of the
// checkpoints an earlier run left in its directory. Before, it counted
// them as its own lineage, and a later Resume restored from the other
// run's newer file and returned its results as this run's. A Resume
// whose newest shared checkpoint is at or past its horizon — resuming
// with a shorter run than the original — is refused.
func TestFreshRunDropsEarlierCheckpoints(t *testing.T) {
	dir := t.TempDir()
	long := checkpointedDeployment(dir, 100)
	long.Drain = 2 * sim.Second // checkpoints to 2.25 s
	if _, err := deploy.Run(long); err != nil {
		t.Fatal(err)
	}
	short := checkpointedDeployment(dir, 100) // horizon 700 ms
	if _, err := deploy.Resume(short); err == nil {
		t.Fatal("Resume from checkpoints past the horizon succeeded")
	}

	res, err := deploy.Run(short)
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(t, dir, res)
	for cell := 0; cell < short.Cells; cell++ {
		files := mustCheckpointFiles(t, short.Checkpoint.Dir, cell)
		for at := range files {
			if at >= 700*sim.Millisecond {
				t.Errorf("cell %d keeps the earlier run's checkpoint at %v", cell, at)
			}
		}
		if len(files) != 4 {
			t.Errorf("cell %d has %d checkpoints, want the run's own 4", cell, len(files))
		}
	}
	resumed, err := deploy.Resume(short)
	if err != nil {
		t.Fatal(err)
	}
	compareOutcomes(t, want, outcomeOf(t, dir, resumed), "resume after a fresh run")
}
