package main

import (
	"fmt"
	"path/filepath"

	"outran/internal/deploy"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// topologySeed pins every single-cell workload's UE placement, channel
// realisation and HARQ draws. The topology is part of the workload's
// definition, not of its input: --seed redraws the offered traffic
// (arrival times, flow sizes, target UEs) and nothing else, so two
// seeds measure the same cell under two samples of the same load.
const topologySeed = 1

// segment is how often the traced pass pauses the run to look at it.
const segment = 100 * sim.Millisecond

// workloadDef is one benchmark workload: a cell (or deployment)
// configuration plus the open-loop traffic offered to it. Flows arrive
// on the generated schedule whether or not earlier ones finished.
type workloadDef struct {
	name    string
	why     string // one line, mirrored in BENCHMARK.json
	offered string // offered load, for the report

	cells int
	// cell returns one cell's OutRAN configuration with its traffic
	// spec; the pass sets the seeds and the scheduler.
	cell func() ran.Config
	// eventTrace installs the simulator's own JSONL event tracer over
	// an in-memory byte counter (the -trace user's path).
	eventTrace bool

	warmup, window, drain sim.Time
	kpiEvery, ckptEvery   sim.Time // deployment only
}

func mustScenario(name, dist string, load float64) workload.Spec {
	s, ok := workload.Scenario(name, dist, load)
	if !ok {
		panic("benchmark: unknown scenario " + name)
	}
	return s
}

// smallCell is the 12-UE × 25-RB LTE cell city-ops deploys sixteen of
// and cell-traced runs one of.
func smallCell() ran.Config {
	return ran.DefaultLTEConfig().WithTopology(12, 25).WithWorkload(mustScenario("mixed", "lte", 0.7))
}

// workloads lists the five workloads in report order.
var workloads = []workloadDef{
	{
		name:    "lte-steady",
		why:     "paper's LTE point (20 UEs x 100 RBs, load 0.6): phy+channel dominate the TTI, MAC work must not show",
		offered: "0.6 of effective capacity, ~42 flows/s",
		cells:   1,
		cell: func() ran.Config {
			return ran.DefaultLTEConfig().WithWorkload(workload.PoissonSpec("lte", 0.6))
		},
		warmup: 500 * sim.Millisecond, window: 40 * sim.Second, drain: 6 * sim.Second,
	},
	{
		name:    "nr-dense",
		why:     "paper's 5G point (40 UEs x 273 RBs, 0.5 ms TTI, load 0.8): mac+core dominate, HARQ failures occur",
		offered: "0.8 of effective capacity, ~270 flows/s",
		cells:   1,
		cell: func() ran.Config {
			return ran.Default5GConfig(phy.Mu1).WithWorkload(workload.PoissonSpec("mirage", 0.8))
		},
		warmup: 500 * sim.Millisecond, window: 8 * sim.Second, drain: 6 * sim.Second,
	},
	{
		name:    "flow-churn",
		why:     "tiny voice/IoT/web flows at ~1000 flows/s: per-flow and per-packet work outside the TTI phases is largest",
		offered: "0.25 of effective capacity by bytes, ~1000 flows/s",
		cells:   1,
		cell: func() ran.Config {
			return ran.DefaultLTEConfig().WithTopology(12, 100).WithWorkload(workload.Spec{
				Load: 0.25,
				Classes: []workload.ClassSpec{
					{Kind: workload.ClassVoice, Share: 0.4},
					{Kind: workload.ClassIoT, Share: 0.1},
					{Kind: workload.ClassWeb, Dist: "mirage", Share: 0.5},
				},
			})
		},
		warmup: 500 * sim.Millisecond, window: 50 * sim.Second, drain: 8 * sim.Second,
	},
	{
		name:    "city-ops",
		why:     "16-cell deployment on 2 workers with KPI stream and checkpoints: the only deploy/snapshot/multi-thread load",
		offered: "0.7 of effective capacity per cell",
		cells:   16,
		cell:    smallCell,
		warmup:  500 * sim.Millisecond, window: 5 * sim.Second, drain: 3 * sim.Second,
		kpiEvery: 100 * sim.Millisecond, ckptEvery: 2 * sim.Second,
	},
	{
		name:       "cell-traced",
		why:        "one city-ops cell with the JSONL event tracer on: the -trace user's path, whose cost is obs encoding",
		offered:    "0.7 of effective capacity",
		cells:      1,
		cell:       smallCell,
		eventTrace: true,
		warmup:     500 * sim.Millisecond, window: 40 * sim.Second, drain: 6 * sim.Second,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// quick divides every horizon and period by div (the tests' -quick
// mode); the configuration and the offered load stay the same.
func (w workloadDef) quick(div int) workloadDef {
	d := sim.Time(div)
	w.warmup, w.window, w.drain = w.warmup/d, w.window/d, w.drain/d
	w.kpiEvery, w.ckptEvery = w.kpiEvery/d, w.ckptEvery/d
	return w
}

func (w workloadDef) deployed() bool { return w.cells > 1 }

func (w workloadDef) total() sim.Time { return w.warmup + w.window + w.drain }

// ttisPerCell is the TTI count the horizon implies: the TTI tick
// re-arms itself, so it fires at every multiple of the TTI up to and
// including the horizon.
func (w workloadDef) ttisPerCell() uint64 {
	return uint64(w.total() / w.cell().Grid.TTI())
}

// subSeeds derives the per-pass traffic seeds of one --seed. Pass i of
// a run always gets the same sub-seed, so the simulated outcome of a
// run depends on (workload, seed, pass count) only.
func subSeeds(seed uint64, n int) []uint64 {
	r := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64() | 1 // never 0: the harness reads 0 as "derive"
	}
	return out
}

// harness returns the single-cell run description for one pass. For
// the deployment workload it describes cell i run on its own.
func (w workloadDef) harness(cfg ran.Config) ran.Harness {
	return ran.Harness{Config: cfg, Warmup: w.warmup, Window: w.window, Drain: w.drain}
}

// cellConfigs returns the per-cell configurations of one pass. A
// single-cell workload keeps the fixed topology and takes the sub-seed
// as its traffic seed. The deployment derives per-cell seeds from the
// sub-seed exactly as deploy.Run does (one master stream, cell order)
// — checkCellSeeds verifies the two agree — and each cell's traffic
// seed follows from its cell seed inside the harness.
func (w workloadDef) cellConfigs(sub uint64, sched ran.SchedulerKind) []ran.Harness {
	base := w.cell().ForScheduler(sched)
	if !w.deployed() {
		h := w.harness(base.WithSeed(topologySeed))
		h.WorkloadSeed = sub
		return []ran.Harness{h}
	}
	base.KPIEvery = w.kpiEvery
	base.StreamFCT = true
	master := rng.New(sub)
	out := make([]ran.Harness, w.cells)
	for i := range out {
		out[i] = w.harness(base.WithSeed(master.Uint64()))
		out[i].Snapshots = true
	}
	return out
}

// deployConfig is the city-ops run description; dir receives the KPI
// stream and the checkpoints.
func (w workloadDef) deployConfig(sub uint64, sched ran.SchedulerKind, workers int, dir string) deploy.Config {
	cell := w.cell().ForScheduler(sched)
	cell.KPIEvery = w.kpiEvery
	return deploy.Config{
		Cells: w.cells, Workers: workers, Cell: cell, Seed: sub,
		Warmup: w.warmup, Window: w.window, Drain: w.drain,
		KPIPath:    filepath.Join(dir, "kpi.jsonl"),
		Checkpoint: deploy.CheckpointConfig{Dir: filepath.Join(dir, "ckpt"), Every: w.ckptEvery},
	}
}

func (w workloadDef) String() string {
	c := w.cell()
	return fmt.Sprintf("%s: %d cell(s) x %d UEs x %d RBs, %s, window %v", w.name, w.cells, c.NumUEs, c.Grid.NumRB, w.offered, w.window)
}
