package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"outran/internal/deploy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// writeTrace runs one checkpointed OutRAN cell for 2 s with its trace
// on and returns the trace's path: meta, flow-lifecycle, decision,
// tracker and checkpoint events are all in it.
func writeTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	_, err := deploy.Run(deploy.Config{
		Cell: ran.DefaultLTEConfig().
			WithTopology(6, 25).
			ForScheduler(ran.SchedOutRAN).
			WithWorkload(workload.PoissonSpec("lte", 0.6)),
		Warmup:     500 * sim.Millisecond,
		Window:     sim.Second,
		Drain:      500 * sim.Millisecond,
		Seed:       3,
		TracePath:  path,
		Checkpoint: deploy.CheckpointConfig{Dir: filepath.Join(dir, "ck"), Every: 600 * sim.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceGolden pins the bytes summary, audit, slow 5 and flow (on
// the slowest flow) print for one recorded trace, and flow's error for
// a flow the trace does not hold. amd64 only: other targets may fuse
// float operations differently.
func TestTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	path := writeTrace(t)
	report := func(args ...string) []byte {
		var stdout bytes.Buffer
		if err := run(args, &stdout, os.Stderr); err != nil {
			t.Fatalf("outran-trace %s: %v", strings.Join(args, " "), err)
		}
		return stdout.Bytes()
	}
	slow := report("slow", path, "5")
	rows := strings.Split(string(slow), "\n")
	if len(rows) < 2 || len(strings.Fields(rows[1])) == 0 {
		t.Fatalf("slow 5 lists no flow:\n%s", slow)
	}
	slowest := strings.Fields(rows[1])[0]
	for golden, got := range map[string][]byte{
		"summary.golden": report("summary", path),
		"audit.golden":   report("audit", path),
		"slow5.golden":   slow,
		"flow.golden":    report("flow", path, slowest),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("output differs from testdata/%s:\n%s", golden, got)
		}
	}
	err := run([]string{"flow", path, "nope"}, io.Discard, io.Discard)
	if want := `flow "nope" not in trace`; err == nil || err.Error() != want {
		t.Errorf("flow nope: err = %v, want %q", err, want)
	}
}

// TestKPIGolden pins the bytes kpi prints for a 1-cell and a 2-cell
// KPI stream. amd64 only, as TestTraceGolden.
func TestKPIGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	for cells, golden := range map[int]string{1: "kpi1.golden", 2: "kpi2.golden"} {
		var stdout bytes.Buffer
		if err := run([]string{"kpi", writeKPI(t, cells)}, &stdout, io.Discard); err != nil {
			t.Fatalf("%d cells: %v", cells, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%d cells: output differs from testdata/%s:\n%s", cells, golden, stdout.Bytes())
		}
	}
}
