package ran

import (
	"os"
	"runtime"
	"testing"
	"time"

	"outran/internal/obs"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// kpiScenario runs the fixed benchmark scenario once. kpiEvery > 0
// enables KPI state and samples at that cadence the way the deployment
// loop does; profiled installs the phase profiler.
func kpiScenario(tb testing.TB, kpiEvery sim.Time, profiled bool) {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 8
	cfg.Grid.NumRB = 25
	cfg.Scheduler = SchedOutRAN
	cfg.Seed = 42
	cfg.KPIEvery = kpiEvery
	cell, err := NewCell(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if profiled {
		cell.SetPhaseProfiler(obs.NewPhaseProfiler())
	}
	const dur = 800 * sim.Millisecond
	src, err := workload.Poisson(workload.PoissonConfig{
		Dist:            workload.LTECellular(),
		NumUEs:          cfg.NumUEs,
		Load:            0.7,
		CellCapacityBps: cell.EffectiveCapacityBps(),
		Duration:        dur,
	}, rng.New(9))
	if err != nil {
		tb.Fatal(err)
	}
	cell.ScheduleSource(src, 0, dur)
	total := dur + 4*sim.Second
	if kpiEvery > 0 {
		for t := kpiEvery; t <= total; t += kpiEvery {
			cell.Run(t)
			cell.SampleKPI(t)
		}
	}
	cell.Run(total)
}

// gateRatio times the two configurations in alternation, one run of
// each per round (the arm that goes first alternates too, so slow drift
// of the host hits both alike), logs every round, and returns
// min-of-rounds instrumented / min-of-rounds baseline.
func gateRatio(t *testing.T, rounds int, baseline, instrumented func()) float64 {
	t.Helper()
	//outran:wallclock benchmark timing for the overhead gates; never enters simulation state
	timeOne := func(fn func()) time.Duration {
		// Collect first: both arms allocate the same amount per run, so
		// without this the collector's cycles land in the same arm of
		// the alternation every round.
		runtime.GC()
		start := time.Now()
		fn()
		return time.Since(start)
	}
	// Warm both paths so neither pays first-run costs.
	baseline()
	instrumented()
	bestBase, bestInst := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		var base, inst time.Duration
		if i%2 == 0 {
			base, inst = timeOne(baseline), timeOne(instrumented)
		} else {
			inst, base = timeOne(instrumented), timeOne(baseline)
		}
		t.Logf("round %d: baseline %v, instrumented %v", i, base, inst)
		bestBase, bestInst = min(bestBase, base), min(bestInst, inst)
	}
	t.Logf("min %v / min %v", bestInst, bestBase)
	return float64(bestInst) / float64(bestBase)
}

// TestKPIOverheadGate: with OUTRAN_OVERHEAD_GATE=1, KPI state plus
// per-100 ms sampling may cost at most 5% over the plain run — the
// telemetry budget of the live-KPI issue. Min-of-5 filters runner
// noise; the env guard keeps the timing off developer test runs.
func TestKPIOverheadGate(t *testing.T) {
	if os.Getenv("OUTRAN_OVERHEAD_GATE") == "" {
		t.Skip("set OUTRAN_OVERHEAD_GATE=1 to run the timing gate")
	}
	ratio := gateRatio(t, 5,
		func() { kpiScenario(t, 0, false) },
		func() { kpiScenario(t, 100*sim.Millisecond, false) })
	t.Logf("kpi sampling ratio %.3f", ratio)
	if ratio > 1.05 {
		t.Fatalf("KPI sampling costs %.1f%% over the plain run (budget 5%%)", 100*(ratio-1))
	}
}

// TestPhaseProfilerOverheadGate: the enabled profiler (two clock reads
// per instrumented phase) must stay within 5% of the uninstrumented
// run. The disabled cost is pinned at zero separately — a nil
// profiler never reads the clock (obs.TestPhaseProfilerNilInert) and
// the hot path's allocation contract is unchanged.
func TestPhaseProfilerOverheadGate(t *testing.T) {
	if os.Getenv("OUTRAN_OVERHEAD_GATE") == "" {
		t.Skip("set OUTRAN_OVERHEAD_GATE=1 to run the timing gate")
	}
	ratio := gateRatio(t, 5,
		func() { kpiScenario(t, 0, false) },
		func() { kpiScenario(t, 0, true) })
	t.Logf("phase profiler ratio %.3f", ratio)
	if ratio > 1.05 {
		t.Fatalf("phase profiler costs %.1f%% enabled (budget 5%%)", 100*(ratio-1))
	}
}
