package fault

import (
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// RunConfig describes one monitored (and optionally chaos-injected)
// simulation run. The single Seed deterministically derives the cell,
// workload, plan, and injector streams, so a (config, seed) pair fully
// pins the run.
type RunConfig struct {
	Cell     ran.Config
	Load     float64  // Poisson LTE workload's offered load vs. effective capacity (default 0.7)
	Duration sim.Time // workload arrival window
	Drain    sim.Time // extra run time after the last arrival (default 6 s)
	// Intensity scales the fault plan; 0 disables injection entirely
	// (monitor-only baseline).
	Intensity float64
	Seed      uint64
}

// Result bundles everything a chaos run produces.
type Result struct {
	Samples  []metrics.FCTSample
	Stats    ran.Stats
	Monitor  Report
	Injector InjectorStats
	Plan     Plan
}

// MeanFCT returns the mean flow completion time, or 0 with no samples.
func (r Result) MeanFCT() sim.Time {
	if len(r.Samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range r.Samples {
		sum += s.FCT
	}
	return sum / sim.Time(len(r.Samples))
}

// Run executes one monitored run: build the cell, attach the invariant
// monitor (always) and the fault injector (when Intensity > 0),
// schedule a Poisson workload, run to completion, and finalize.
func Run(rc RunConfig) (Result, error) {
	if rc.Drain <= 0 {
		rc.Drain = 6 * sim.Second
	}
	if rc.Load <= 0 {
		rc.Load = 0.7
	}
	master := rng.New(rc.Seed)
	cellSeed := master.Uint64()
	wlSeed := master.Uint64()
	planSeed := master.Uint64()
	injSeed := master.Uint64()

	var res Result
	var mon *Monitor
	var inj *Injector
	cell, err := ran.Harness{
		Config:       rc.Cell.WithSeed(cellSeed).WithWorkload(workload.PoissonSpec("lte", rc.Load)),
		Window:       rc.Duration,
		Drain:        rc.Drain,
		WorkloadSeed: wlSeed,
		// Setup runs before the workload is scheduled, so plan events
		// keep their historical ordering against same-time arrivals.
		Setup: func(c *ran.Cell) error {
			mon = NewMonitor(c)
			if rc.Intensity > 0 {
				res.Plan = NewPlan(planSeed, PlanConfig{
					NumUEs:    c.Config().NumUEs,
					Horizon:   rc.Duration + rc.Drain/2,
					Intensity: rc.Intensity,
				})
				inj = NewInjector(c, injSeed)
			}
			Attach(c, res.Plan, inj, mon)
			return nil
		},
	}.Run()
	if err != nil {
		return Result{}, err
	}

	res.Samples = cell.FCT.Samples()
	res.Stats = cell.CollectStats()
	res.Monitor = mon.Finalize()
	if inj != nil {
		res.Injector = inj.Stats()
	}
	return res, nil
}
