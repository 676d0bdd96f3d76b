package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"outran/internal/channel"
	"outran/internal/cli"
	"outran/internal/fault"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
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
	if o.UEs != 30 || o.RBs != 50 || o.Flows != 10000 || o.Seeds != 2 || o.Seed != 1 {
		t.Fatalf("defaults %+v", o)
	}
	s := Options{Scale: 0.5}.withDefaults()
	if s.UEs != 15 {
		t.Fatalf("scaled UEs %d", s.UEs)
	}
	if s.Flows != o.Flows/2 {
		t.Fatalf("scaled flows %d", s.Flows)
	}
	if s.Seeds != 1 {
		t.Fatal("reduced scale should run a single seed")
	}
	if got := (Options{Scale: 0.5, Seeds: 4}).withDefaults().Seeds; got != 4 {
		t.Fatalf("reduced scale with Seeds 4 runs %d seeds, want the 4 asked for", got)
	}
	tiny := Options{Scale: 0.01}.withDefaults()
	if tiny.UEs < 2 {
		t.Fatal("UE floor violated")
	}
}

func TestDurationForFlows(t *testing.T) {
	// rate = 0.6*100e6/8/30e3 = 250 flows/s -> 1.2 s, raised to 2 s.
	if d, err := durationForFlows(300, 0.6, 100e6, 30e3); err != nil || d != 2*sim.Second {
		t.Fatalf("duration %v, %v", d, err)
	}
	// rate ~1.04 flows/s -> 288 s: no upper clamp.
	if d, err := durationForFlows(300, 0.1, 10e6, 120e3); err != nil || d < 288*sim.Second-sim.Millisecond || d > 288*sim.Second+sim.Millisecond {
		t.Fatalf("duration %v, %v", d, err)
	}
	for _, bad := range [][4]float64{{0, 0.6, 1e6, 1e3}, {10, 0, 1e6, 1e3}, {10, 0.6, 0, 1e3}, {10, 0.6, 1e6, 0}, {10, math.NaN(), 1e6, 1e3}} {
		if d, err := durationForFlows(int(bad[0]), bad[1], bad[2], bad[3]); err == nil {
			t.Errorf("durationForFlows%v = %v, want an error", bad, d)
		}
	}
	// A spec that generates nothing (audit's hand-built source) has no
	// load or mean flow size to size a window by.
	if d, err := window(ran.DefaultLTEConfig(), workload.Spec{}, 100); err == nil {
		t.Errorf("window for an empty spec = %v, want an error", d)
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

// TestTinySimExperiment exercises the shared runPoints machinery
// through one real (but very small) figure harness.
func TestTinySimExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	f, _ := Lookup("fig7")
	tables, err := f(Options{Scale: 0.1, Flows: 100, Drain: 6 * sim.Second})
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
		Flows:      20,
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
	opt := Options{Flows: 40, Drain: 4 * sim.Second, Seeds: 1}.withDefaults()
	cell := func(idx int) point { return fig19Point(opt, channel.ColosseumRome(), 0.4, ran.SchedPF, idx) }
	res, err := runPoints(opt, []point{cell(0), cell(1), cell(0)})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for idx, r := range res {
		all := r.FCT.Overall()
		if all.Count == 0 {
			t.Fatalf("point %d completed no flows", idx)
		}
		got = append(got, fmt.Sprintf("n=%d mean=%v p95=%v", all.Count, all.Mean, all.P95))
	}
	if got[0] == got[1] {
		t.Errorf("cells 0 and 1 are the same run: %s", got[0])
	}
	if got[2] != got[0] {
		t.Errorf("cell 0 rerun at the same seed: %s, then %s", got[0], got[2])
	}
}

// TestRunPointsWorkers: every (point, seed) job of a figure shares one
// worker pool and the fold runs in (point, seed) order, so a figure's
// tables are the same at one, two and three workers.
func TestRunPointsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	figure := func(workers int) string {
		tables, err := Fig18c(Options{UEs: 4, RBs: 15, Flows: 20, Drain: 2 * sim.Second, Seeds: 2, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			tb.Fprint(&sb)
		}
		return sb.String()
	}
	one := figure(1)
	for _, workers := range []int{2, 3} {
		if got := figure(workers); got != one {
			t.Errorf("table differs between 1 and %d workers:\n%s\n%s", workers, one, got)
		}
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
		tables, err := Chaos(Options{UEs: 4, RBs: 25, Flows: 20, Drain: 2 * sim.Second, Seeds: 2, Workers: workers})
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

// TestChaosReestablishInOrder reruns the two jobs of `outran-bench
// -seeds 10 chaos` whose checker saw a UE's PDCP SNs go backwards: a
// transport block of the RLC entities a re-establishment tore down
// reached their replacements. Each run must re-establish a UE and
// show its invariants clean.
func TestChaosReestablishInOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	opt := Options{Seeds: 10}.withDefaults()
	run, err := chaosRunner(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range len(chaosScheds) * len(chaosIntensities) * opt.Seeds {
		sched, intensity, seed := chaosJob(opt, i)
		if !(sched == ran.SchedPF && intensity == 0.3 && seed == 6) && !(sched == ran.SchedOutRAN && intensity == 0.7 && seed == 8) {
			continue
		}
		t.Run(fmt.Sprintf("%s-%s-seed%d", sched, f2(intensity), seed), func(t *testing.T) {
			t.Parallel()
			r, err := run(i)
			if err != nil {
				t.Fatal(err)
			}
			rep := r.Invariants
			if r.Stats.Reestablishments == 0 || rep.Checks == 0 || rep.Deliveries == 0 {
				t.Fatalf("%d re-establishments, %d TTI checks, %d deliveries: the run shows nothing", r.Stats.Reestablishments, rep.Checks, rep.Deliveries)
			}
			if !rep.Clean() {
				t.Fatalf("%d violation(s), first %v", rep.Violated, rep.Violations[0])
			}
		})
	}
}

// checkedResults is a sweep's worth of results whose checker swept
// TTIs and saw deliveries without a violation.
func checkedResults(opt Options) []fault.Result {
	res := make([]fault.Result, len(chaosScheds)*len(chaosIntensities)*opt.Seeds)
	for i := range res {
		res[i].Invariants = ran.InvariantReport{Checks: 1000, Deliveries: 100}
	}
	return res
}

// TestChaosTableViolation: the chaos fold turns a checker violation
// into an error that names the run's scheduler, intensity and seed and
// its violations, and is not a usage error (outran-bench exits 1).
func TestChaosTableViolation(t *testing.T) {
	opt := Options{Seed: 5, Seeds: 2}
	res := checkedResults(opt)
	// Job 9: OutRAN (jobs 6..11), intensity 0.30 (jobs 8, 9), seed 5+1.
	res[9].Invariants.Violated = 1
	res[9].Invariants.Violations = []ran.Violation{{At: sim.Second, Rule: "rb-owner-range", Detail: "RB 3 owned by 6, want [-1,6)"}}
	tb, err := chaosTable(opt, res)
	if err == nil {
		t.Fatal("violation folded into no error")
	}
	for _, want := range []string{"OutRAN intensity 0.30 seed 6: 1 violation(s)", "[rb-owner-range] RB 3 owned by 6, want [-1,6)"} {
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
	if _, err := chaosTable(opt, checkedResults(opt)); err != nil {
		t.Errorf("clean results: %v", err)
	}
}

// TestChaosTableEmptyVerdict: a run whose checker never ran (no TTI
// swept, no delivery seen) reports no violation, and the fold must not
// print it as clean: it is an error naming the run.
func TestChaosTableEmptyVerdict(t *testing.T) {
	opt := Options{Seed: 5, Seeds: 2}
	res := checkedResults(opt)
	// Job 3: PF (jobs 0..5), intensity 0.30 (jobs 2, 3), seed 5+1.
	res[3].Invariants = ran.InvariantReport{}
	tb, err := chaosTable(opt, res)
	if err == nil {
		t.Fatal("an unchecked run folded into no error")
	}
	if want := "PF intensity 0.30 seed 6: empty verdict (0 TTI checks, 0 deliveries)"; !strings.Contains(err.Error(), want) {
		t.Errorf("error lacks %q:\n%v", want, err)
	}
	if errors.Is(err, cli.ErrUsage) {
		t.Errorf("empty verdict is a usage error: %v", err)
	}
	if got := tb.Rows[1][len(tb.Header)-1]; got != "1 UNCHECKED" {
		t.Errorf("PF 0.30 verdict %q, want 1 UNCHECKED", got)
	}
}
