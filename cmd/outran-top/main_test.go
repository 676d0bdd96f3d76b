package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/deploy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// TestOnce is the KPI-consumer smoke CI used to run as a shell step:
// outran-top -once renders a stream a 2-cell deployment just wrote, one
// row per cell and one for the roll-up.
func TestOnce(t *testing.T) {
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
	if err := run([]string{"-once", path}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	// 8 instants x (2 cells + roll-up), and no ANSI clear in one frame.
	for _, want := range []string{"t=2.0s  2 cells  24 records\n", "\n    0 ", "\n    1 ", "\n  ALL "} {
		if !strings.Contains(out, want) {
			t.Errorf("frame lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("-once frame carries an ANSI escape:\n%q", out)
	}
}
