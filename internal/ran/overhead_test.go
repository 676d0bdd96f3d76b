package ran

import (
	"os"
	"testing"

	"outran/internal/obs"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// overheadScenario runs the fixed benchmark scenario once. tracer nil
// means tracing fully off (SetTracer never called); a nil-sink tracer
// exercises the Enabled() fast path at every emit site.
func overheadScenario(tb testing.TB, tracer *obs.Tracer, withTracer bool) {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 8
	cfg.Grid.NumRB = 25
	cfg.Scheduler = SchedOutRAN
	cfg.Seed = 42
	cell, err := NewCell(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if withTracer {
		cell.SetTracer(tracer)
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
	cell.Run(dur + 4*sim.Second)
}

// BenchmarkTracingDisabled measures the scenario with tracing compiled
// in but never installed — the baseline every emit site's nil guard is
// compared against.
func BenchmarkTracingDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		overheadScenario(b, nil, false)
	}
}

// BenchmarkTracingNilSink measures the same scenario with a tracer
// installed whose sink is nil: Enabled() is false, so every emit site
// takes the same branch as the disabled case. The delta between the
// two benchmarks is the total cost of the tracing layer when off.
func BenchmarkTracingNilSink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		overheadScenario(b, obs.NewTracer(nil), true)
	}
}

// BenchmarkTracingRingSink measures full tracing into an in-memory
// ring, bounding what a live trace costs.
func BenchmarkTracingRingSink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		overheadScenario(b, obs.NewTracer(obs.NewRingSink(1<<16)), true)
	}
}

// TestNilSinkOverheadGate is the CI overhead gate (satellite of the
// tracing issue): with OUTRAN_OVERHEAD_GATE=1 it times the scenario
// with tracing fully off and with a nil-sink tracer, and fails when the
// nil-sink path regresses more than 5%. The two arms run interleaved,
// round by round, 21 rounds (see timeArms): one scenario run is ~10 ms,
// so timing each arm as a block let a host hiccup during one block
// decide the ratio. The verdict is overheadGate's: over budget by the
// min/min ratio *and* slower in at least 15 of the 21 rounds. The env
// guard keeps the timing off developer `go test ./...` runs.
func TestNilSinkOverheadGate(t *testing.T) {
	if os.Getenv("OUTRAN_OVERHEAD_GATE") == "" {
		t.Skip("set OUTRAN_OVERHEAD_GATE=1 to run the timing gate")
	}
	overheadGate(t, "nil-sink tracing", 21, 0.05,
		func() { overheadScenario(t, nil, false) },
		func() { overheadScenario(t, obs.NewTracer(nil), true) })
}
