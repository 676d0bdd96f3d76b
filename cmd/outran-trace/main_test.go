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
