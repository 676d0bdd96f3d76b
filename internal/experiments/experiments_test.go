package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"outran/internal/channel"
	"outran/internal/cli"
	"outran/internal/fault"
	"outran/internal/ran"
	"outran/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig3", "fig4", "fig7", "fig8", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18a", "fig18b", "fig18c", "fig18d", "fig19", "fig20",
		"chaos", "audit", "deployment", "warmstart", "diurnal",
		"capacity",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(IDs()), len(want), IDs())
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("bogus id resolved")
	}
}

func TestTablePrinting(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "long_header"},
		Rows:   [][]string{{"xxxxxx", "1"}, {"y", "2"}},
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Columns aligned: the second column starts at the same offset.
	if strings.Index(lines[1], "long_header") != strings.Index(lines[2], "1") {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

func TestOptionsDefaultsAndScaling(t *testing.T) {
	o := Options{}.withDefaults()
	if o.UEs != 30 || o.RBs != 50 || o.Seeds != 2 || o.Seed != 1 {
		t.Fatalf("defaults %+v", o)
	}
	s := Options{Scale: 0.5}.withDefaults()
	if s.UEs != 15 {
		t.Fatalf("scaled UEs %d", s.UEs)
	}
	if s.Duration != o.Duration/2 {
		t.Fatalf("scaled duration %v", s.Duration)
	}
	if s.Seeds != 1 {
		t.Fatal("reduced scale should run a single seed")
	}
	tiny := Options{Scale: 0.01}.withDefaults()
	if tiny.UEs < 2 {
		t.Fatal("UE floor violated")
	}
}

func TestDurationForFlows(t *testing.T) {
	d := durationForFlows(300, 0.6, 100e6, 30e3)
	// rate = 0.6*100e6/8/30e3 = 250 flows/s -> 1.2 s, clamped to 2 s.
	if d != 2*sim.Second {
		t.Fatalf("duration %v", d)
	}
	d = durationForFlows(300, 0.1, 10e6, 120e3)
	// rate ~1.04 flows/s -> ~288 s, clamped to 60 s.
	if d != 60*sim.Second {
		t.Fatalf("duration %v", d)
	}
	if durationForFlows(10, 0, 0, 0) != sim.Second {
		t.Fatal("degenerate input")
	}
}

// TestStaticExperiments runs the two pure-table experiments end to end.
func TestStaticExperiments(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		f, _ := Lookup(id)
		tables, err := f(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestOverheadExperiments runs the microbenchmark-style experiments
// (they are fast and need no simulation).
func TestOverheadExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	for _, id := range []string{"fig13", "fig14"} {
		f, _ := Lookup(id)
		tables, err := f(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables[0].Rows) != 4 {
			t.Fatalf("%s: %d rows", id, len(tables[0].Rows))
		}
	}
}

// TestTinySimExperiment exercises the shared runCell machinery through
// one real (but very small) figure harness.
func TestTinySimExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	f, _ := Lookup("fig7")
	tables, err := f(Options{Scale: 0.1, Duration: 2 * sim.Second, Drain: 6 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig7 produced %d tables", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != 3 {
			t.Fatalf("%s: %d rows, want 3 schedulers", tb.Title, len(tb.Rows))
		}
	}
}

func TestTableCSVAndSlug(t *testing.T) {
	tb := Table{
		Title:  "Fig 15(a): overall average FCT (ms) vs cell load",
		Header: []string{"load", "PF"},
		Rows:   [][]string{{"0.40", "51.3"}},
	}
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "load,PF\n0.40,51.3\n"
	if sb.String() != want {
		t.Fatalf("csv %q, want %q", sb.String(), want)
	}
	slug := tb.Slug()
	if slug != "fig-15-a-overall-average-fct-ms-vs-cell-load" {
		t.Fatalf("slug %q", slug)
	}
}

// TestMeasureDeployment exercises the capacity measurement machinery
// at tiny scale: the simulated fields must be populated and the
// machine-efficiency headlines derivable.
func TestMeasureDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	pt, err := MeasureDeployment(CapacitySpec{
		Cells:      2,
		UEsPerCell: 3,
		RBs:        15,
		Load:       0.5,
		Window:     sim.Second,
		Drain:      2 * sim.Second,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Cells != 2 || pt.UEs != 6 || pt.Workers < 1 {
		t.Fatalf("shape: %+v", pt)
	}
	if pt.Flows == 0 || pt.ShortFlows == 0 || pt.ShortP99 <= 0 {
		t.Fatalf("no flows measured: %+v", pt)
	}
	if pt.WallSeconds <= 0 || pt.CellsPerCore <= 0 {
		t.Fatalf("wall-clock headlines missing: %+v", pt)
	}
	if pt.PeakRSS == 0 || pt.UEsPerGB <= 0 {
		t.Fatalf("RSS headlines missing: %+v", pt)
	}
}

// TestFig19CellsAreIndependent: the four Colosseum cells are four
// seeds, not one run recorded four times, and a cell is still a pure
// function of (seed, index).
func TestFig19CellsAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	opt := Options{Duration: sim.Second, Drain: 4 * sim.Second, Seeds: 1}.withDefaults()
	cell := func(idx int) string {
		res, err := fig19Cell(opt, channel.ColosseumRome(), 0.4, ran.SchedPF, idx)
		if err != nil {
			t.Fatal(err)
		}
		all := res.FCT.Overall()
		if all.Count == 0 {
			t.Fatalf("cell %d completed no flows", idx)
		}
		return fmt.Sprintf("n=%d mean=%v p95=%v", all.Count, all.Mean, all.P95)
	}
	c0, c1 := cell(0), cell(1)
	if c0 == c1 {
		t.Errorf("cells 0 and 1 are the same run: %s", c0)
	}
	if again := cell(0); again != c0 {
		t.Errorf("cell 0 rerun at the same seed: %s, then %s", c0, again)
	}
}

// TestChaosWorkers: the chaos sweep's jobs run across the worker pool
// and fold in job order, so its table is the same at one worker and at
// two, and a clean sweep is no error.
func TestChaosWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	sweep := func(workers int) string {
		tables, err := Chaos(Options{UEs: 4, RBs: 25, Duration: sim.Second, Drain: 2 * sim.Second, Seeds: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			tb.Fprint(&sb)
		}
		return sb.String()
	}
	one, two := sweep(1), sweep(2)
	if one != two {
		t.Errorf("chaos table differs between 1 and 2 workers:\n%s\n%s", one, two)
	}
	if strings.Count(one, " clean\n") != len(chaosScheds)*len(chaosIntensities) {
		t.Errorf("sweep not clean:\n%s", one)
	}
}

// TestChaosTableViolation: the chaos fold turns a monitor violation
// into an error that names the run's scheduler, intensity and seed and
// its violations, and is not a usage error (outran-bench exits 1).
func TestChaosTableViolation(t *testing.T) {
	opt := Options{Seed: 5, Seeds: 2}
	res := make([]fault.Result, len(chaosScheds)*len(chaosIntensities)*opt.Seeds)
	// Job 9: OutRAN (jobs 6..11), intensity 0.30 (jobs 8, 9), seed 5+1.
	res[9].Monitor = fault.Report{Violated: 1, Violations: []fault.Violation{{At: sim.Second, Rule: "rb-grid", Detail: "RB 3 owned twice"}}}
	tb, err := chaosTable(opt, res)
	if err == nil {
		t.Fatal("violation folded into no error")
	}
	for _, want := range []string{"OutRAN intensity 0.30 seed 6: 1 violation(s)", "[rb-grid] RB 3 owned twice"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error lacks %q:\n%v", want, err)
		}
	}
	if errors.Is(err, cli.ErrUsage) {
		t.Errorf("violation is a usage error: %v", err)
	}
	if got := tb.Rows[4][len(tb.Header)-1]; got != "1 VIOLATED" {
		t.Errorf("OutRAN 0.30 verdict %q, want 1 VIOLATED", got)
	}
	res[9].Monitor = fault.Report{}
	if _, err := chaosTable(opt, res); err != nil {
		t.Errorf("clean results: %v", err)
	}
}
