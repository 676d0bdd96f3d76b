package fault

import (
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
)

// RunConfig describes one invariant-checked (and optionally
// chaos-injected) simulation run. The single Seed deterministically
// derives the cell, workload, plan, and injector streams, so a (config,
// seed) pair fully pins the run.
type RunConfig struct {
	Cell     ran.Config // the cell, with its workload declared on it
	Duration sim.Time   // workload arrival window
	Drain    sim.Time   // extra run time after the last arrival
	// Intensity scales the fault plan; 0 disables injection entirely
	// (checked fault-free baseline).
	Intensity float64
	Seed      uint64
}

// Result bundles everything a chaos run produces.
type Result struct {
	Samples    []metrics.FCTSample
	Stats      ran.Stats
	Invariants ran.InvariantReport
	Injector   InjectorStats
	Plan       Plan
}

// Run assembles the run as a ran.Harness and runs it to the end: the
// cell and the workload take the first two seeds derived from rc.Seed,
// and the harness's Setup installs the cell's invariant checker
// (always) and attaches the fault plan and injector (when Intensity >
// 0) on the next two.
func (rc RunConfig) Run() (Result, error) {
	master := rng.New(rc.Seed)
	cellSeed := master.Uint64()
	wlSeed := master.Uint64()
	planSeed, injSeed := master.Uint64(), master.Uint64()
	var (
		inj  *Injector
		plan Plan
	)
	cell, err := ran.Harness{
		Config:       rc.Cell.WithSeed(cellSeed),
		Window:       rc.Duration,
		Drain:        rc.Drain,
		WorkloadSeed: wlSeed,
		// Setup runs before the workload is scheduled, so plan events
		// keep their historical ordering against same-time arrivals.
		Setup: func(c *ran.Cell) error {
			c.InstallChecker()
			if rc.Intensity > 0 {
				plan = NewPlan(planSeed, PlanConfig{
					NumUEs:    c.Config().NumUEs,
					Horizon:   rc.Duration + rc.Drain/2,
					Intensity: rc.Intensity,
				})
				inj = NewInjector(c, injSeed)
				Attach(c, plan, inj)
			}
			return nil
		},
	}.Run()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Samples:    cell.FCT.Samples(),
		Stats:      cell.CollectStats(),
		Invariants: cell.InvariantReport(),
		Plan:       plan,
	}
	if inj != nil {
		res.Injector = inj.Stats()
	}
	return res, nil
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
