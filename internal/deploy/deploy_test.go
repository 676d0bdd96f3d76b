package deploy_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"outran/internal/deploy"
	"outran/internal/ran"
	"outran/internal/rng"
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
		cfg.TracePath = tracePathIn(dir)
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

// TestStreamingFCTDefault pins the city-scale memory contract: a
// deployment of two or more cells records FCTs into bounded streaming
// accumulators although Cell.StreamFCT is off, while one cell keeps the
// recorder its config chose — and both recorders agree on the counts.
func TestStreamingFCTDefault(t *testing.T) {
	cfg := smallDeployment(0)
	res, err := deploy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Live {
		if c.FCT.Stream() == nil {
			t.Errorf("cell %d retains exact samples; deployments must stream", i)
		}
		if got := len(c.FCT.Samples()); got != 0 {
			t.Errorf("cell %d: %d exact samples in a deployment, want 0", i, got)
		}
	}

	one := smallDeployment(0)
	one.Cells, one.Handovers = 1, nil
	eres, err := deploy.Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if c := eres.Live[0]; c.FCT.Stream() != nil || len(c.FCT.Samples()) == 0 {
		t.Fatalf("one cell without Cell.StreamFCT: streams %v, %d exact samples", c.FCT.Stream() != nil, len(c.FCT.Samples()))
	}
	one.Cell.StreamFCT = true
	sres, err := deploy.Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Live[0].FCT.Stream() == nil {
		t.Fatal("one cell with Cell.StreamFCT retains exact samples")
	}
	// Same seed, same horizon: the recorder mode never changes what is
	// simulated, only how completions are summarised.
	if sres.Aggregate.FCTOverall.Count != eres.Aggregate.FCTOverall.Count {
		t.Fatalf("FCT count differs by recorder mode: streaming %d, exact %d",
			sres.Aggregate.FCTOverall.Count, eres.Aggregate.FCTOverall.Count)
	}
	if sres.Aggregate.Counters.FlowsCompleted != eres.Aggregate.Counters.FlowsCompleted {
		t.Fatalf("FlowsCompleted differs by recorder mode: streaming %d, exact %d",
			sres.Aggregate.Counters.FlowsCompleted, eres.Aggregate.Counters.FlowsCompleted)
	}
}

// TestCellSeeds: one cell runs on the deployment seed itself (Cell.Seed
// when Seed is 0); N cells run on the master stream's draws, in cell
// order.
func TestCellSeeds(t *testing.T) {
	cfg := smallDeployment(0)
	cfg.Handovers = nil
	res, err := deploy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(cfg.Seed)
	for i, c := range res.Cells {
		if want := master.Uint64(); c.Summary.Seed != want {
			t.Errorf("cell %d seed %d, want master draw %d", i, c.Summary.Seed, want)
		}
	}

	cfg.Cells = 1
	for _, tc := range []struct{ seed, cellSeed, want uint64 }{{42, 5, 42}, {0, 9, 9}} {
		cfg.Seed, cfg.Cell.Seed = tc.seed, tc.cellSeed
		res, err := deploy.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cells[0].Summary.Seed; got != tc.want {
			t.Errorf("one cell with Seed %d, Cell.Seed %d: runs on %d, want %d", tc.seed, tc.cellSeed, got, tc.want)
		}
	}
}

// TestPerCellPaths: one cell uses TracePath, WorkloadTracePath and a
// replayed Workload.TraceFile as given; N cells use name.cellN.ext for
// each, and each cell replays the workload trace it wrote.
func TestPerCellPaths(t *testing.T) {
	dir := t.TempDir()
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, tc := range []struct {
		cells int
		name  string
		files []string
	}{
		{1, "one", []string{"one.jsonl", "one-w.jsonl"}},
		{2, "two", []string{"two.cell0.jsonl", "two.cell1.jsonl", "two-w.cell0.jsonl", "two-w.cell1.jsonl"}},
	} {
		cfg := smallDeployment(0)
		cfg.Cells, cfg.Handovers = tc.cells, nil
		cfg.TracePath, cfg.WorkloadTracePath = in(tc.name+".jsonl"), in(tc.name+"-w.jsonl")
		emit, err := deploy.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tc.files {
			if st, err := os.Stat(in(f)); err != nil || st.Size() == 0 {
				t.Errorf("%d cell(s): %s not written: %v", tc.cells, f, err)
			}
		}

		cfg.TracePath, cfg.WorkloadTracePath = "", ""
		cfg.Cell = cfg.Cell.WithWorkload(workload.ReplaySpec(in(tc.name + "-w.jsonl")))
		replay, err := deploy.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range emit.Cells {
			a, err := json.Marshal(emit.Cells[i].Summary)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(replay.Cells[i].Summary)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%d cell(s): cell %d replay differs from the run that wrote its trace", tc.cells, i)
			}
		}
	}
	if _, err := os.Stat(in("two.jsonl")); !os.IsNotExist(err) {
		t.Errorf("a deployment wrote the unsuffixed trace path: %v", err)
	}
}
