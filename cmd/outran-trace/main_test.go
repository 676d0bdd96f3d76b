package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/deploy"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// TestKPIReport is the KPI-consumer smoke CI used to run as a shell
// step: outran-trace kpi reads a stream a deployment just wrote and
// reports both cells and their roll-up.
func TestKPIReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kpi.jsonl")
	cell := ran.DefaultLTEConfig().
		WithTopology(6, 25).
		ForScheduler(ran.SchedOutRAN).
		WithWorkload(workload.PoissonSpec("lte", 0.6))
	cell.KPIEvery = 250 * sim.Millisecond
	_, err := deploy.Run(deploy.Config{
		Cells:   2,
		Cell:    cell,
		Window:  sim.Second,
		Drain:   sim.Second,
		Seed:    1,
		KPIPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"kpi", path}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	// 8 instants x (2 cells + roll-up); the final-state table has one
	// row per cell and the ranking names both.
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
	if got := obs.SlowestFlows(obs.Timelines(events), -1); len(got) != 0 {
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
		if err := run([]string{"slow", path, n}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
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
