package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/cli"
	"outran/internal/deploy"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// writeKPI runs a deployment of the given number of cells that samples
// KPIs every 250 ms of a 2 s run and returns the path of the stream it
// wrote: 8 instants x (2 cells + roll-up) = 24 records for two cells,
// 8 records for one (a single cell writes no roll-up).
func writeKPI(t *testing.T, cells int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kpi.jsonl")
	cell := ran.DefaultLTEConfig().
		WithTopology(6, 25).
		ForScheduler(ran.SchedOutRAN).
		WithWorkload(workload.PoissonSpec("lte", 0.6))
	cell.KPIEvery = 250 * sim.Millisecond
	_, err := deploy.Run(deploy.Config{
		Cells:   cells,
		Cell:    cell,
		Window:  sim.Second,
		Drain:   sim.Second,
		Seed:    1,
		KPIPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestKPIReport is the KPI-consumer smoke CI used to run as a shell
// step: outran-trace kpi reads a stream a deployment just wrote and
// reports both cells and their roll-up.
func TestKPIReport(t *testing.T) {
	path := writeKPI(t, 2)
	var stdout bytes.Buffer
	if err := run([]string{"kpi", path}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	// The final-state table has one row per cell and the ranking names
	// both.
	for _, want := range []string{
		"24 records, 2 cells, 8 instants",
		"\n     0 ", "\n     1 ",
		"window series (deployment roll-up)",
		"#1 cell ", "#2 cell ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestKPIFoldKeepsPrintedSeries: kpi folds a 2-cell stream into each
// cell's last record and the roll-up series it prints, and keeps no
// cell's own series.
func TestKPIFoldKeepsPrintedSeries(t *testing.T) {
	f, err := os.Open(writeKPI(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	k := kpiReport{final: map[int]obs.KPIRecord{}}
	if err := obs.ScanKPI(f, k.fold); err != nil {
		t.Fatal(err)
	}
	if k.recs != 24 || len(k.final) != 2 || len(k.rollup) != 8 || k.lowRecs != 8 || k.lowSeries != nil {
		t.Fatalf("folded %d records into %d cells' last records, a %d-record roll-up, %d instants and %d cell-series records; want 24, 2, 8, 8, 0",
			k.recs, len(k.final), len(k.rollup), k.lowRecs, len(k.lowSeries))
	}
}

// TestTop: outran-trace top -once renders a stream a 2-cell deployment
// just wrote, one row per cell and one for the roll-up. It folds only
// complete lines, rebuilds its view when the file is truncated, and
// rejects what kpi rejects.
func TestTop(t *testing.T) {
	path := writeKPI(t, 2)
	stream, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(stream, []byte("\n"))
	frame := func(path string) (string, error) {
		var stdout bytes.Buffer
		err := run([]string{"top", "-once", path}, &stdout, io.Discard)
		return stdout.String(), err
	}
	writeFile := func(path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	poll := func(v *viewer, wantRecs int) {
		t.Helper()
		if err := v.poll(); err != nil {
			t.Fatal(err)
		}
		if v.recs != wantRecs {
			t.Errorf("view holds %d records, want %d", v.recs, wantRecs)
		}
	}

	out, err := frame(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t=2.0s  2 cells  24 records\n", "\n    0 ", "\n    1 ", "\n  ALL "} {
		if !strings.Contains(out, want) {
			t.Errorf("frame lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("-once frame carries an ANSI escape:\n%q", out)
	}

	t.Run("torn trailing line", func(t *testing.T) {
		torn := filepath.Join(t.TempDir(), "kpi.jsonl")
		half := len(lines[0]) / 2
		writeFile(torn, append(bytes.Clone(stream), lines[0][:half]...))
		out, err := frame(torn)
		if err != nil {
			t.Fatalf("torn line: %v", err)
		}
		if !strings.Contains(out, "  24 records\n") {
			t.Errorf("frame folded the torn line:\n%s", out)
		}
		// The writer finishes the line: the next poll folds it.
		v := newViewer(torn, 32)
		poll(v, 24)
		writeFile(torn, append(bytes.Clone(stream), lines[0]...))
		poll(v, 25)
	})

	t.Run("truncated and rewritten", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "kpi.jsonl")
		writeFile(p, stream)
		v := newViewer(p, 32)
		poll(v, 24)
		writeFile(p, bytes.Join(lines[:3], nil))
		poll(v, 3)
		var b bytes.Buffer
		v.render(&b, false)
		if !strings.Contains(b.String(), "  3 records\n") {
			t.Errorf("view not rebuilt after truncation:\n%s", b.String())
		}
	})

	t.Run("foreign schema", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "kpi.jsonl")
		v99 := bytes.Replace(lines[0], []byte(fmt.Sprintf(`"v":%d,`, obs.KPISchemaVersion)), []byte(`"v":99,`), 1)
		if bytes.Equal(v99, lines[0]) {
			t.Fatalf("no schema version in %s", lines[0])
		}
		writeFile(p, v99)
		kpiErr := run([]string{"kpi", p}, io.Discard, io.Discard)
		_, topErr := frame(p)
		if kpiErr == nil || topErr == nil || topErr.Error() != kpiErr.Error() {
			t.Errorf("v99 line: top returned %v, kpi %v; want the same error", topErr, kpiErr)
		}
	})
}

// TestUsageBeforeFile: a bad subcommand or arity is a usage error
// (exit status 2) found before the file is opened, so it holds for a
// path that does not exist; the synopsis lists every subcommand.
func TestUsageBeforeFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, args := range [][]string{
		nil,
		{"bogus", missing},
		{"summary"},
		{"summary", missing, "extra"},
		{"audit"},
		{"flow", missing},
		{"flow", missing, "a", "b"},
		{"slow", missing, "0"},
		{"slow", missing, "5", "extra"},
		{"kpi"},
		{"kpi", missing, missing},
		{"top"},
		{"top", "-once"},
		{"top", "-no-such-flag", missing},
		{"top", "-once", missing, missing},
	} {
		if err := run(args, io.Discard, io.Discard); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("outran-trace %q: err = %v, want a usage error", args, err)
		}
	}
	synopsis, _, _ := strings.Cut(errUsage.Error(), "\n")
	if !strings.Contains(synopsis, "<summary|audit|flow|slow|kpi|top>") {
		t.Errorf("synopsis %q does not list every subcommand", synopsis)
	}
}

// TestSlowCount pins the count handling of slow: a count that is not a
// positive integer is a usage error, not a silent 10, and
// obs.SlowestFlows treats a negative n as 0 instead of panicking.
func TestSlowCount(t *testing.T) {
	events := []obs.Event{
		{T: 0, Type: obs.EvFlowStart, Flow: "a", Size: 100},
		{T: 0, Type: obs.EvFlowStart, Flow: "b", Size: 100},
		{T: 30, Type: obs.EvFlowEnd, Flow: "a", FCT: 30},
		{T: 50, Type: obs.EvFlowEnd, Flow: "b", FCT: 50},
	}
	var flows obs.Flows
	for i := range events {
		flows.Emit(&events[i])
	}
	if got := obs.SlowestFlows(flows.List, -1); len(got) != 0 {
		t.Errorf("SlowestFlows(n = -1) returned %d flows, want 0", len(got))
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(f)
	for i := range events {
		sink.Emit(&events[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"x", "0", "-3", "2.5", ""} {
		if err := run([]string{"slow", path, n}, io.Discard, io.Discard); !errors.Is(err, cli.ErrUsage) {
			t.Errorf("slow %q: err = %v, want a usage error", n, err)
		}
	}
	for n, want := range map[string]int{"1": 1, "5": 2} {
		var stdout bytes.Buffer
		if err := run([]string{"slow", path, n}, &stdout, io.Discard); err != nil {
			t.Fatalf("slow %s: %v", n, err)
		}
		if rows := strings.Count(stdout.String(), "\n") - 1; rows != want {
			t.Errorf("slow %s printed %d flows, want %d:\n%s", n, rows, want, stdout.String())
		}
	}
}
