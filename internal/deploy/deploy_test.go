package deploy_test

import (
	"testing"

	"outran/internal/deploy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// smallDeployment is the shared test configuration: four lightly
// loaded cells, short horizon, one mid-run handover so the phased
// execution path is always exercised.
func smallDeployment(workers int) deploy.Config {
	return deploy.Config{
		Cells:   4,
		Workers: workers,
		Cell: ran.DefaultLTEConfig().
			WithTopology(4, 15).
			ForScheduler(ran.SchedOutRAN).
			WithWorkload(workload.PoissonSpec("lte", 0.5)),
		Window: 400 * sim.Millisecond,
		Drain:  300 * sim.Millisecond,
		Seed:   42,
		Handovers: []deploy.Handover{{
			At: 200 * sim.Millisecond, UE: 0, From: 0, To: 1, ContinueBytes: 32 << 10,
		}},
	}
}

// TestParallelSerialEquivalence is the determinism gate for the
// deployment runtime: a run on 1 worker and a run on 4 workers must
// produce byte-identical per-cell summaries, byte-identical per-cell
// trace files (the trace files open inside the build pool, so this is
// also the gate for outran-sim -trace at any -parallel), and an
// identical aggregate. The worker count may change wall-clock time and
// nothing else.
func TestParallelSerialEquivalence(t *testing.T) {
	run := func(workers int) deployOutcome {
		dir := t.TempDir()
		cfg := smallDeployment(workers)
		cfg.TracePathFor = tracePathIn(dir)
		res, err := deploy.Run(cfg)
		if err != nil {
			t.Fatalf("deploy.Run(workers=%d): %v", workers, err)
		}
		for i, c := range res.Cells {
			if c.Cell != i {
				t.Fatalf("workers=%d: cell %d reported index %d", workers, i, c.Cell)
			}
		}
		return outcomeOf(t, dir, res)
	}
	compareOutcomes(t, run(1), run(4), "1 vs 4 workers")
}

// TestDeploymentShape checks the aggregate bookkeeping: cell count,
// seed echo, counters actually summed, handover accounted.
func TestDeploymentShape(t *testing.T) {
	cfg := smallDeployment(0)
	res, err := deploy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || res.Aggregate.Cells != 4 {
		t.Fatalf("want 4 cells, got %d (aggregate %d)", len(res.Cells), res.Aggregate.Cells)
	}
	if res.Aggregate.Seed != 42 {
		t.Fatalf("aggregate seed = %d, want 42", res.Aggregate.Seed)
	}
	if res.Aggregate.HandoversApplied != 1 {
		t.Fatalf("handovers applied = %d, want 1", res.Aggregate.HandoversApplied)
	}
	var started int
	seeds := map[uint64]bool{}
	for _, c := range res.Cells {
		started += c.Summary.Counters.FlowsStarted
		seeds[c.Summary.Seed] = true
	}
	if started == 0 {
		t.Fatal("no flows started across the deployment")
	}
	if started != res.Aggregate.Counters.FlowsStarted {
		t.Fatalf("aggregate FlowsStarted = %d, want %d", res.Aggregate.Counters.FlowsStarted, started)
	}
	if len(seeds) != 4 {
		t.Fatalf("per-cell seeds not distinct: %v", seeds)
	}
	if res.Aggregate.FCTOverall.Count == 0 {
		t.Fatal("aggregate FCT distribution is empty")
	}
}

// TestDeploymentValidation covers the scripted-handover error paths.
func TestDeploymentValidation(t *testing.T) {
	base := smallDeployment(1)
	cases := []struct {
		name string
		mut  func(*deploy.Config)
	}{
		{"source out of range", func(c *deploy.Config) { c.Handovers[0].From = 9 }},
		{"target out of range", func(c *deploy.Config) { c.Handovers[0].To = -1 }},
		{"self handover", func(c *deploy.Config) { c.Handovers[0].To = c.Handovers[0].From }},
		{"negative UE", func(c *deploy.Config) { c.Handovers[0].UE = -1 }},
		{"after horizon", func(c *deploy.Config) { c.Handovers[0].At = 10 * sim.Second }},
		{"zero horizon", func(c *deploy.Config) { c.Window, c.Drain = 0, 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Handovers = []deploy.Handover{base.Handovers[0]}
			tc.mut(&cfg)
			if _, err := deploy.Run(cfg); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

// TestStreamingFCTDefault pins the city-scale memory contract:
// deployment runs record FCTs into bounded streaming accumulators
// unless the caller opts back into exact per-flow retention with
// Config.ExactFCT — and both modes agree on the aggregate counts.
func TestStreamingFCTDefault(t *testing.T) {
	cfg := smallDeployment(0)
	res, err := deploy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Live {
		if c.FCT.Stream() == nil {
			t.Errorf("cell %d retains exact samples; deployments must stream by default", i)
		}
		if got := len(c.FCT.Samples()); got != 0 {
			t.Errorf("cell %d: %d exact samples under streaming default, want 0", i, got)
		}
	}

	exact := smallDeployment(0)
	exact.ExactFCT = true
	eres, err := deploy.Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	for i, c := range eres.Live {
		if c.FCT.Stream() != nil {
			t.Errorf("cell %d streams despite ExactFCT", i)
		}
		samples += len(c.FCT.Samples())
	}
	if samples == 0 {
		t.Fatal("ExactFCT run retained no samples")
	}
	// Same seed, same horizon: the recorder mode never changes what is
	// simulated, only how completions are summarised.
	if res.Aggregate.FCTOverall.Count != eres.Aggregate.FCTOverall.Count {
		t.Fatalf("FCT count differs by recorder mode: streaming %d, exact %d",
			res.Aggregate.FCTOverall.Count, eres.Aggregate.FCTOverall.Count)
	}
	if res.Aggregate.Counters.FlowsCompleted != eres.Aggregate.Counters.FlowsCompleted {
		t.Fatalf("FlowsCompleted differs by recorder mode: streaming %d, exact %d",
			res.Aggregate.Counters.FlowsCompleted, eres.Aggregate.Counters.FlowsCompleted)
	}
}
