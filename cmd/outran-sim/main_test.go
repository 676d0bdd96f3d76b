package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"outran/internal/cli"
	"outran/internal/deploy"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// TestFlagMapping pins flags -> deploy.Config: everything the run does
// is decided here, so this table is the CLI's contract.
func TestFlagMapping(t *testing.T) {
	cases := []struct {
		name  string
		args  string
		check func(t *testing.T, o options)
	}{
		{"defaults are one exact-FCT cell on -seed", "", func(t *testing.T, o options) {
			d := o.deploy
			if d.Cells != 1 || d.Workers != 0 || d.Window != 8*sim.Second || d.Drain != drain || d.Seed != 1 {
				t.Errorf("cells %d workers %d window %v drain %v seed %d", d.Cells, d.Workers, d.Window, d.Drain, d.Seed)
			}
			if d.Cell.StreamFCT || d.Profile || d.KPIPath != "" || d.TracePath != "" || d.WorkloadTracePath != "" {
				t.Errorf("StreamFCT %v Profile %v KPIPath %q trace %q workload trace %q",
					d.Cell.StreamFCT, d.Profile, d.KPIPath, d.TracePath, d.WorkloadTracePath)
			}
			if d.Checkpoint.Enabled() || len(d.Handovers) != 0 || o.resume || o.jsonOut {
				t.Errorf("checkpoint %+v handovers %v resume %v json %v", d.Checkpoint, d.Handovers, o.resume, o.jsonOut)
			}
			if d.Cell.Scheduler != ran.SchedOutRAN || d.Cell.NumUEs != 20 || d.Cell.Grid.NumRB != 50 || d.Cell.RLC != ran.UM {
				t.Errorf("cell config %v/%d/%d/%v", d.Cell.Scheduler, d.Cell.NumUEs, d.Cell.Grid.NumRB, d.Cell.RLC)
			}
			if o.wlDesc != "poisson/lte" || !reflect.DeepEqual(d.Cell.Workload, workload.PoissonSpec("lte", 0.6)) {
				t.Errorf("workload %q %+v", o.wlDesc, d.Cell.Workload)
			}
		}},
		{"single cell pins the cell seed", "-seed 7", func(t *testing.T, o options) {
			// deploy runs a single cell on the deployment seed itself.
			if o.deploy.Seed != 7 || o.deploy.Cell.Seed != 7 {
				t.Errorf("seed %d, cell seed %d, want 7", o.deploy.Seed, o.deploy.Cell.Seed)
			}
		}},
		{"deployment keeps derived seeds and streams", "-cells 3 -seed 7 -parallel 2", func(t *testing.T, o options) {
			// deploy derives the cell seeds from Seed and streams every
			// cell's FCTs; the flags set only the plain fields.
			if o.deploy.Seed != 7 || o.deploy.Cells != 3 || o.deploy.Workers != 2 || o.deploy.Cell.StreamFCT {
				t.Errorf("seed %d cells %d workers %d StreamFCT %v", o.deploy.Seed, o.deploy.Cells, o.deploy.Workers, o.deploy.Cell.StreamFCT)
			}
		}},
		{"-stream-fct turns exact off for one cell", "-stream-fct", func(t *testing.T, o options) {
			if !o.deploy.Cell.StreamFCT {
				t.Error("StreamFCT not set")
			}
		}},
		{"single-cell outputs use the path as given", "-trace run.jsonl -trace-out w.jsonl", func(t *testing.T, o options) {
			if o.deploy.TracePath != "run.jsonl" || o.deploy.WorkloadTracePath != "w.jsonl" {
				t.Errorf("trace %q workload trace %q", o.deploy.TracePath, o.deploy.WorkloadTracePath)
			}
		}},
		{"deployment outputs are per cell", "-cells 2 -trace run.jsonl -trace-out out/w.jsonl", func(t *testing.T, o options) {
			// deploy names the per-cell files (TestPerCellPaths).
			if o.deploy.TracePath != "run.jsonl" || o.deploy.WorkloadTracePath != "out/w.jsonl" {
				t.Errorf("trace %q workload trace %q", o.deploy.TracePath, o.deploy.WorkloadTracePath)
			}
		}},
		{"single-cell replay reads the path as given", "-workload-trace w.jsonl", func(t *testing.T, o options) {
			if !reflect.DeepEqual(o.deploy.Cell.Workload, workload.ReplaySpec("w.jsonl")) || o.wlDesc != "trace:w.jsonl" {
				t.Errorf("workload %+v desc %q", o.deploy.Cell.Workload, o.wlDesc)
			}
		}},
		{"deployment replay is per cell", "-cells 2 -workload-trace w.jsonl", func(t *testing.T, o options) {
			// deploy names the per-cell files (TestPerCellPaths).
			if !reflect.DeepEqual(o.deploy.Cell.Workload, workload.ReplaySpec("w.jsonl")) || o.deploy.Cells != 2 {
				t.Errorf("workload %+v cells %d", o.deploy.Cell.Workload, o.deploy.Cells)
			}
		}},
		{"scenario workload", "-workload diurnal -dist websearch -load 0.8", func(t *testing.T, o options) {
			want, _ := workload.Scenario("diurnal", "websearch", 0.8)
			if !reflect.DeepEqual(o.deploy.Cell.Workload, want) || o.wlDesc != "diurnal/websearch" || o.load != 0.8 {
				t.Errorf("workload %+v desc %q load %v", o.deploy.Cell.Workload, o.wlDesc, o.load)
			}
		}},
		{"-checkpoint-dir alone does not checkpoint", "-checkpoint-dir ck", func(t *testing.T, o options) {
			if o.deploy.Checkpoint.Enabled() {
				t.Errorf("checkpointing on: %+v", o.deploy.Checkpoint)
			}
		}},
		{"-checkpoint-every enables the directory", "-checkpoint-every 400ms -checkpoint-dir ck", func(t *testing.T, o options) {
			if c := o.deploy.Checkpoint; c.Dir != "ck" || c.Every != 400*sim.Millisecond {
				t.Errorf("checkpoint %+v", c)
			}
		}},
		{"-resume enables the default directory", "-resume", func(t *testing.T, o options) {
			if c := o.deploy.Checkpoint; c.Dir != "outran-ckpt" || c.Every != 0 || !o.resume {
				t.Errorf("checkpoint %+v resume %v", c, o.resume)
			}
		}},
		{"handover carries a continuation flow", "-cells 2 -handover 3s", func(t *testing.T, o options) {
			want := deploy.Handover{At: 3 * sim.Second, UE: 0, From: 0, To: 1, ContinueBytes: 256 << 10}
			if len(o.deploy.Handovers) != 1 || o.deploy.Handovers[0] != want {
				t.Errorf("handovers %+v, want %+v", o.deploy.Handovers, want)
			}
		}},
		{"checkpointing zeroes the handover continuation", "-cells 2 -handover 3s -checkpoint-every 1s", func(t *testing.T, o options) {
			if len(o.deploy.Handovers) != 1 || o.deploy.Handovers[0].ContinueBytes != 0 {
				t.Errorf("handovers %+v, want ContinueBytes 0", o.deploy.Handovers)
			}
		}},
		{"KPI, profile, numerology, AM, reporting", "-kpi-every 250ms -kpi k.jsonl -profile -numerology 1 -am -json -dur 2s -eps 0.3 -sched PF", func(t *testing.T, o options) {
			d := o.deploy
			if d.Cell.KPIEvery != 250*sim.Millisecond || d.KPIPath != "k.jsonl" || !d.Profile || !o.jsonOut || d.Window != 2*sim.Second {
				t.Errorf("KPIEvery %v KPIPath %q Profile %v json %v window %v", d.Cell.KPIEvery, d.KPIPath, d.Profile, o.jsonOut, d.Window)
			}
			if d.Cell.RLC != ran.AM || d.Cell.Grid.TTI() != 500*sim.Microsecond || d.Cell.OutRAN.Epsilon != 0.3 || d.Cell.Scheduler != ran.SchedPF {
				t.Errorf("RLC %v TTI %v eps %v sched %v", d.Cell.RLC, d.Cell.Grid.TTI(), d.Cell.OutRAN.Epsilon, d.Cell.Scheduler)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(strings.Fields(tc.args), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, o)
		})
	}

	rejected := []struct {
		name, args string
		usage      bool // exit status 2
	}{
		{"-workload with -workload-trace", "-workload diurnal -workload-trace w.jsonl", false},
		{"-kpi without -kpi-every", "-kpi k.jsonl", false},
		{"-handover with one cell", "-handover 3s", false},
		{"-profile with a deployment", "-cells 2 -profile", false},
		{"unknown -workload", "-workload nope", false},
		{"unknown -sched", "-sched nope", false},
		{"unknown -dist", "-dist nope", true},
		{"unknown flag", "-nope", true},
	}
	for _, tc := range rejected {
		t.Run("rejects "+tc.name, func(t *testing.T) {
			_, err := parseFlags(strings.Fields(tc.args), io.Discard)
			if err == nil {
				t.Fatal("accepted")
			}
			if errors.Is(err, cli.ErrUsage) != tc.usage {
				t.Errorf("usage error = %v, want %v (%v)", errors.Is(err, cli.ErrUsage), tc.usage, err)
			}
		})
	}
}

// The gates below are the determinism contracts of the north star,
// exercised through the binary's own entry point: same seed -> same
// bytes across worker counts, kill/resume and workload-trace replay.
// They were shell steps in CI; here the tier-1 command enforces them.

// small is the shared tiny topology of the gate runs.
var small = []string{"-dur", "1s", "-ues", "6", "-rbs", "25"}

// simRun runs outran-sim in-process and returns its stdout.
func simRun(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("outran-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	if stdout.Len() == 0 {
		t.Fatalf("outran-sim %s printed nothing", strings.Join(args, " "))
	}
	return stdout.Bytes()
}

// with returns base + extra as a fresh argument list.
func with(base []string, extra ...string) []string {
	return append(append([]string(nil), base...), extra...)
}

func sameBytes(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if len(a) == 0 {
		t.Errorf("%s is empty — the gate is vacuous", what)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("%s differs (%d vs %d bytes)", what, len(a), len(b))
	}
}

func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, filepath.Base(a)+" vs "+filepath.Base(b), ab, bb)
}

// without drops the lines containing substr (the shell gates' grep -v).
func without(b []byte, substr string) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if !bytes.Contains(line, []byte(substr)) {
			out = append(out, line...)
		}
	}
	return out
}

// killNewest simulates a crash after the second-newest checkpoint
// barrier: it deletes each cell's newest checkpoint file.
func killNewest(t *testing.T, dir string, cells int) {
	t.Helper()
	for i := 0; i < cells; i++ {
		files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("cell%d-*.ckpt", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) < 2 {
			t.Fatalf("cell %d has %d checkpoints in %s, need 2 to kill one", i, len(files), dir)
		}
		sort.Strings(files)
		if err := os.Remove(files[len(files)-1]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGateParallelVsSerial(t *testing.T) {
	t.Parallel()
	base := with(small, "-cells", "2", "-json")
	sameBytes(t, "2-cell JSON at -parallel 1 vs 2",
		simRun(t, with(base, "-parallel", "1")...),
		simRun(t, with(base, "-parallel", "2")...))
}

func TestGateKPIWorkerCount(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	k1, k2 := filepath.Join(dir, "kpi1.jsonl"), filepath.Join(dir, "kpi2.jsonl")
	base := with(small, "-cells", "2", "-kpi-every", "250ms", "-json")
	simRun(t, with(base, "-parallel", "1", "-kpi", k1)...)
	simRun(t, with(base, "-parallel", "2", "-kpi", k2)...)
	sameFiles(t, k1, k2)
	f, err := os.Open(k1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Readable by the consumers: every instant is cell 0, cell 1, roll-up.
	recs, err := obs.ReadKPI(f)
	if err != nil || len(recs) == 0 || len(recs)%3 != 0 {
		t.Fatalf("KPI stream: %d records, err %v", len(recs), err)
	}
}

func TestGateResumeSingleCell(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	args := func(side string) []string {
		return with(small, "-checkpoint-every", "400ms", "-checkpoint-dir", in("ck"+side),
			"-trace", in(side+".jsonl"), "-kpi-every", "250ms", "-kpi", in("k"+side+".jsonl"), "-json")
	}
	ref := simRun(t, args("a")...)
	simRun(t, args("b")...)
	killNewest(t, in("ckb"), 1)
	sameBytes(t, "JSON, uninterrupted vs resumed", ref, simRun(t, with(args("b"), "-resume")...))
	sameFiles(t, in("a.jsonl"), in("b.jsonl"))
	sameFiles(t, in("ka.jsonl"), in("kb.jsonl"))
}

func TestGateResumeDeployment(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	args := func(side string) []string {
		return with(small, "-cells", "2", "-checkpoint-every", "400ms", "-checkpoint-dir", in("ck"+side),
			"-trace", in(side+".jsonl"), "-json")
	}
	ref := simRun(t, args("a")...)
	simRun(t, args("b")...)
	killNewest(t, in("ckb"), 2)
	resumed := simRun(t, with(args("b"), "-resume")...)
	// "restores" counts recoveries and lives outside the compared
	// summary by design (0 vs 2 here); everything else is byte-equal.
	sameBytes(t, "JSON, uninterrupted vs resumed", without(ref, `"restores"`), without(resumed, `"restores"`))
	if bytes.Equal(ref, resumed) {
		t.Error("resumed run reports no restores")
	}
	for i := 0; i < 2; i++ {
		sameFiles(t, in(fmt.Sprintf("a.cell%d.jsonl", i)), in(fmt.Sprintf("b.cell%d.jsonl", i)))
	}
}

func TestGateWorkloadTraceReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	base := with(small, "-cells", "2", "-kpi-every", "250ms", "-json")
	emit := simRun(t, with(base, "-parallel", "1", "-workload", "diurnal", "-trace-out", in("w.jsonl"), "-kpi", in("we.jsonl"))...)
	replay := simRun(t, with(base, "-parallel", "2", "-workload-trace", in("w.jsonl"), "-kpi", in("wr.jsonl"))...)
	sameBytes(t, "JSON, emitted at 1 worker vs replayed at 2", emit, replay)
	sameFiles(t, in("we.jsonl"), in("wr.jsonl"))
}

func TestGateDiurnal(t *testing.T) {
	t.Parallel()
	base := with(small, "-workload", "diurnal", "-json")
	d1 := simRun(t, base...)
	sameBytes(t, "diurnal JSON, same seed twice", d1, simRun(t, base...))
	// Crash-resume mid-envelope stays byte-identical too.
	ck := with(base, "-checkpoint-every", "400ms", "-checkpoint-dir", filepath.Join(t.TempDir(), "wck"))
	d3 := simRun(t, ck...)
	killNewest(t, ck[len(ck)-1], 1)
	sameBytes(t, "diurnal JSON, uninterrupted vs resumed", d3, simRun(t, with(ck, "-resume")...))
	// checkpoint_* fields are bookkeeping outside the compared physics.
	sameBytes(t, "diurnal JSON, with vs without checkpointing", without(d1, `"checkpoint_`), without(d3, `"checkpoint_`))
}

func TestGateCapacity(t *testing.T) {
	t.Parallel()
	base := []string{"-cells", "16", "-ues", "12", "-rbs", "25", "-dur", "1s", "-json"}
	sameBytes(t, "16-cell JSON at -parallel 1 vs 4",
		simRun(t, with(base, "-parallel", "1")...),
		simRun(t, with(base, "-parallel", "4")...))
	// The city-scale memory budget (DESIGN.md): this deployment fits in
	// 512 MiB. The test binary's lifetime peak bounds the deployment's
	// from above.
	if rss := deploy.PeakRSSBytes(); rss >= 512<<20 {
		t.Errorf("peak RSS %.1f MiB after the 16-cell x 12-UE deployment, budget 512 MiB", float64(rss)/(1<<20))
	}
}

// TestGoldenJSON pins the -json bytes of one tiny single-cell and one
// 2-cell run. The digests were recorded from the binary of the commit
// before the CLI moved onto deploy.Run, so they also prove that move
// changed nothing. The SRJF run was recorded from the commit before the
// RLC buffer stopped folding OracleMinRemaining for schedulers that
// never read it; at load 0.9 its digest moves if SRJF loses the oracle.
// All three were re-recorded when the tracker took over the fairness
// block: only mean_fairness_index moved, since outran-sim runs without
// warmup and had taken Jain over one TTI's grants; and once more when
// the counters gained skipped_pdus, the UM PDUs skipped at a gap. amd64
// only: other targets may fuse float operations differently.
func TestGoldenJSON(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"single cell", "0c4902e2338c87a1298f0aa9cff91f3ec6d475fc3e73e64f83e11ad32dbc8836", with(small, "-json")},
		{"two cells", "ebb860f44a9fd06638c891672a48646254e199c6ce32f5399bd325acd6613fe7", with(small, "-cells", "2", "-json")},
		{"SRJF", "99062e32f2b53c4f3819357ac9c35963bdbe3850e586eb475774a28cf0b6a855", with(small, "-dur", "3s", "-load", "0.9", "-sched", "SRJF", "-json")},
	} {
		sum := sha256.Sum256(simRun(t, tc.args...))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: -json digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestTextSummary: the text report of both shapes reaches stdout, with
// the phase profile line only under -profile.
func TestTextSummary(t *testing.T) {
	t.Parallel()
	one := string(simRun(t, with(small, "-profile")...))
	for _, want := range []string{"scheduler      OutRAN", "FCT short", "phase profile"} {
		if !strings.Contains(one, want) {
			t.Errorf("single-cell text lacks %q:\n%s", want, one)
		}
	}
	two := string(simRun(t, with(small, "-cells", "2", "-handover", "500ms")...))
	for _, want := range []string{"deployment     2 cells", "  cell 1 ", "handovers      1 applied", "FCT short"} {
		if !strings.Contains(two, want) {
			t.Errorf("deployment text lacks %q:\n%s", want, two)
		}
	}
	if strings.Contains(two, "phase profile") {
		t.Errorf("deployment text carries a phase profile:\n%s", two)
	}
}

// TestCPUProfileFlushedOnError: a failed run still stops the CPU
// profile, so -cpuprofile never leaves a truncated file behind.
func TestCPUProfileFlushedOnError(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	err := run(with(small, "-resume", "-checkpoint-dir", filepath.Join(dir, "none"), "-cpuprofile", prof), io.Discard, io.Discard)
	if err == nil {
		t.Fatal("resume from an empty checkpoint directory succeeded")
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile not flushed: %v, %v", st, err)
	}
}

// TestNonFiniteFlags: a NaN or infinite -load, or a NaN -eps, fails
// the run (exit 1) with an error naming the config field, instead of
// running an empty simulation or one with relaxation silently off.
func TestNonFiniteFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value, field string }{
		{"-load", "NaN", "Spec.Load"},
		{"-load", "Inf", "Spec.Load"},
		{"-eps", "NaN", "epsilon"},
	} {
		var stdout bytes.Buffer
		err := run(with(small, tc.flag, tc.value), &stdout, io.Discard)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s %s: run returned %v, want an error", tc.flag, tc.value, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s %s: error %q does not name %s", tc.flag, tc.value, err, tc.field)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: a rejected run wrote a summary:\n%s", tc.flag, tc.value, stdout.String())
		}
	}
}

// TestNegativeSizes: a negative size or instant, and a cell of no UEs,
// is a usage error (exit status 2). Before, each of these ran and exited
// 0: -ues -3 and -ues 0 ran 1 UE, -rbs -15 ran 100 RBs, -dur -1s ran
// 8 s, -numerology -1 ran the LTE grid, -cells -2 ran one cell,
// -handover -1s applied no handover, -checkpoint-every -1s wrote no
// checkpoint and -parallel -3 ran on GOMAXPROCS; -kpi-every -1s failed
// config validation with exit status 1.
func TestNegativeSizes(t *testing.T) {
	for _, neg := range [][]string{
		{"-ues", "-3"},
		{"-ues", "0"},
		{"-numerology", "-1"},
		{"-rbs", "-15"},
		{"-dur", "-1s"},
		{"-cells", "-2"},
		{"-parallel", "-3"},
		{"-handover", "-1s", "-cells", "2"},
		{"-kpi-every", "-1s"},
		{"-checkpoint-every", "-1s"},
	} {
		var stdout bytes.Buffer
		err := run(with(small, neg...), &stdout, io.Discard)
		if !errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), neg[0]+" "+neg[1]) {
			t.Errorf("outran-sim %s: err = %v, want a usage error naming the flag", strings.Join(neg, " "), err)
		}
		if stdout.Len() != 0 {
			t.Errorf("outran-sim %s: a rejected run wrote a summary", strings.Join(neg, " "))
		}
	}
}
