package ran

import (
	"math"
	"os"
	"runtime"
	"slices"
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

// timeArms times the two configurations in alternation, one run of
// each per round (the arm that goes first alternates too, so slow drift
// of the host hits both alike), logs every round, and returns the
// per-round durations of each arm.
func timeArms(t *testing.T, rounds int, baseline, instrumented func()) (base, inst []time.Duration) {
	t.Helper()
	// Wall clock: benchmark timing for the overhead gates; never enters simulation state
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
	for i := 0; i < rounds; i++ {
		var b, in time.Duration
		if i%2 == 0 {
			b, in = timeOne(baseline), timeOne(instrumented)
		} else {
			in, b = timeOne(instrumented), timeOne(baseline)
		}
		t.Logf("round %d: baseline %v, instrumented %v", i, b, in)
		base, inst = append(base, b), append(inst, in)
	}
	return base, inst
}

// gateRatio is timeArms' min-of-rounds instrumented / min-of-rounds
// baseline.
func gateRatio(t *testing.T, rounds int, baseline, instrumented func()) float64 {
	t.Helper()
	base, inst := timeArms(t, rounds, baseline, instrumented)
	t.Logf("min %v / min %v", slices.Min(inst), slices.Min(base))
	return float64(slices.Min(inst)) / float64(slices.Min(base))
}

// overheadGate is the paired verdict: it fails only when the
// instrumented arm is slower than the baseline in at least signK(rounds)
// of the rounds *and* the min/min ratio exceeds 1 + budget. The round
// count is a sign test — with no real overhead each round is a fair
// coin — so noise alone trips it with probability at most 5 %, where
// the min/min ratio alone swung 0.84-1.07 on the 2-core box.
func overheadGate(t *testing.T, what string, rounds int, budget float64, baseline, instrumented func()) {
	t.Helper()
	base, inst := timeArms(t, rounds, baseline, instrumented)
	ratio := float64(slices.Min(inst)) / float64(slices.Min(base))
	slower := 0
	for i := range base {
		if inst[i] > base[i] {
			slower++
		}
	}
	k := signK(rounds)
	t.Logf("%s: ratio %.3f (min %v / min %v), slower in %d of %d rounds (fails at >= %d)",
		what, ratio, slices.Min(inst), slices.Min(base), slower, rounds, k)
	if slower >= k && ratio > 1+budget {
		t.Fatalf("%s costs %.1f%% (budget %.0f%%) and was slower in %d of %d rounds",
			what, 100*(ratio-1), 100*budget, slower, rounds)
	}
}

// signK is the one-sided 5 % sign test's threshold over n rounds: the
// least k with P(X >= k) <= 0.05 for X ~ Binomial(n, 1/2). It is 15 of
// 21 and 5 of 5; under 5 rounds it exceeds n, and the gate cannot fail.
func signK(n int) int {
	tail, c := 0.0, 1.0 // c = C(n, k), starting at k = n
	for k := n; k > 0; k-- {
		if tail+c/math.Exp2(float64(n)) > 0.05 {
			return k + 1
		}
		tail += c / math.Exp2(float64(n))
		c = c * float64(k) / float64(n-k+1)
	}
	return 1
}

// TestKPIOverheadGate: with OUTRAN_OVERHEAD_GATE=1, KPI state plus
// per-100 ms sampling may cost at most 5% over the plain run — the
// telemetry budget of the live-KPI work — by overheadGate's paired
// verdict over 21 rounds, as the nil-sink gate: over 5 a run's min/min
// ratio swung 0.69–1.08 on one tree. The env guard keeps the timing off
// developer test runs.
func TestKPIOverheadGate(t *testing.T) {
	if os.Getenv("OUTRAN_OVERHEAD_GATE") == "" {
		t.Skip("set OUTRAN_OVERHEAD_GATE=1 to run the timing gate")
	}
	overheadGate(t, "KPI sampling", 21, 0.05,
		func() { kpiScenario(t, 0, false) },
		func() { kpiScenario(t, 100*sim.Millisecond, false) })
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

// TestSignK pins the gates' thresholds against the binomial tails:
// P(X >= 15 | n = 21) = 0.039 but P(X >= 14) = 0.095; P(X >= 5 | n = 5)
// = 1/32. Under 5 rounds not even all of them is significant.
func TestSignK(t *testing.T) {
	for _, c := range []struct{ n, k int }{{21, 15}, {5, 5}, {4, 5}, {10, 9}, {100, 59}} {
		if got := signK(c.n); got != c.k {
			t.Errorf("signK(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}
