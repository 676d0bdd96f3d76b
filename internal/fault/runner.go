package fault

import (
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

// RunConfig describes one monitored (and optionally chaos-injected)
// simulation run. The single Seed deterministically derives the cell,
// workload, plan, and injector streams, so a (config, seed) pair fully
// pins the run.
type RunConfig struct {
	Cell     ran.Config // the cell, with its workload declared on it
	Duration sim.Time   // workload arrival window
	Drain    sim.Time   // extra run time after the last arrival
	// Intensity scales the fault plan; 0 disables injection entirely
	// (monitor-only baseline).
	Intensity float64
	Seed      uint64
}

// Chaos holds the handles of one chaos run. The harness's Setup fills
// them in when it builds the cell; read them after the run.
type Chaos struct {
	Monitor  *Monitor
	Injector *Injector // nil when Intensity is 0
	Plan     Plan

	rc                RunConfig // Cell under the derived cell seed
	planSeed, injSeed uint64
}

// Harness assembles the run as a ran.Harness: the cell and the
// workload take the first two seeds derived from rc.Seed, and Setup
// attaches the invariant monitor (always) and the fault plan and
// injector (when Intensity > 0) on the next two.
func (rc RunConfig) Harness() (ran.Harness, *Chaos) {
	master := rng.New(rc.Seed)
	cellSeed := master.Uint64()
	wlSeed := master.Uint64()
	ch := &Chaos{rc: rc, planSeed: master.Uint64(), injSeed: master.Uint64()}
	ch.rc.Cell = rc.Cell.WithSeed(cellSeed)
	return ran.Harness{
		Config:       ch.rc.Cell,
		Window:       rc.Duration,
		Drain:        rc.Drain,
		WorkloadSeed: wlSeed,
		// Setup runs before the workload is scheduled, so plan events
		// keep their historical ordering against same-time arrivals.
		Setup: func(c *ran.Cell) error {
			ch.build(c)
			Attach(c, ch.Plan, ch.Injector, ch.Monitor)
			return nil
		},
	}, ch
}

// build makes the monitor, plan and injector for c from the run's
// seeds.
func (ch *Chaos) build(c *ran.Cell) {
	ch.Monitor = NewMonitor(c)
	if ch.rc.Intensity > 0 {
		ch.Plan = NewPlan(ch.planSeed, PlanConfig{
			NumUEs:    c.Config().NumUEs,
			Horizon:   ch.rc.Duration + ch.rc.Drain/2,
			Intensity: ch.rc.Intensity,
		})
		ch.Injector = NewInjector(c, ch.injSeed)
	}
}

// Resume rebuilds the run's cell and overlays a checkpoint taken from
// it: the cell's sections, then the injector's and the monitor's. The
// handles are rebuilt too; read them after the resumed run. The plan's
// pending transitions come back from the checkpoint, so none is
// scheduled here.
func (ch *Chaos) Resume(a *snapshot.Archive) (*ran.Cell, error) {
	c, err := ran.NewCell(ch.rc.Cell)
	if err != nil {
		return nil, err
	}
	ch.build(c)
	wire(c, ch.Injector, ch.Monitor)
	if ch.Injector != nil {
		ch.Injector.PrepareResume(ch.Plan)
	}
	if err := c.RestoreSnapshot(a); err != nil {
		return nil, err
	}
	if ch.Injector != nil {
		if err := ch.Injector.RestoreFrom(a); err != nil {
			return nil, err
		}
	}
	if err := ch.Monitor.RestoreFrom(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Result bundles everything a chaos run produces.
type Result struct {
	Samples  []metrics.FCTSample
	Stats    ran.Stats
	Monitor  Report
	Injector InjectorStats
	Plan     Plan
}

// Result finalizes the monitor on the finished cell and collects the
// run's outcome.
func (ch *Chaos) Result(cell *ran.Cell) Result {
	res := Result{
		Samples: cell.FCT.Samples(),
		Stats:   cell.CollectStats(),
		Monitor: ch.Monitor.Finalize(),
		Plan:    ch.Plan,
	}
	if ch.Injector != nil {
		res.Injector = ch.Injector.Stats()
	}
	return res
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
