// Quickstart: build a small LTE cell, offer the paper's heavy-tailed
// cellular workload, and compare the legacy Proportional Fair
// scheduler against OutRAN on flow completion time, spectral
// efficiency, and fairness — the paper's headline result in ~40 lines
// of API use.
package main

import (
	"fmt"
	"log"

	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

func run(sched ran.SchedulerKind) (*ran.Cell, error) {
	cfg := ran.DefaultLTEConfig() // pedestrian channel; trimmed to 50 RB (10 MHz) below
	cfg.NumUEs = 16
	cfg.Grid.NumRB = 50
	cfg.Scheduler = sched
	cfg.Seed = 42
	cell, err := ran.NewCell(cfg)
	if err != nil {
		return nil, err
	}
	const dur = 6 * sim.Second
	flows, err := workload.Poisson(workload.PoissonConfig{
		Dist:            workload.LTECellular(), // Huang et al. flow sizes
		NumUEs:          cfg.NumUEs,
		Load:            0.7,
		CellCapacityBps: cell.EffectiveCapacityBps(),
		Duration:        dur,
	}, rng.New(7))
	if err != nil {
		return nil, err
	}
	cell.ScheduleSource(flows, 0, dur)
	cell.ScheduleTrackerFreeze(dur) // measure SE/fairness over the loaded window
	cell.Run(dur + 12*sim.Second)   // drain
	return cell, nil
}

func main() {
	pf, err := run(ran.SchedPF)
	if err != nil {
		log.Fatal(err)
	}
	outran, err := run(ran.SchedOutRAN)
	if err != nil {
		log.Fatal(err)
	}
	show := func(name string, c *ran.Cell) {
		st := c.CollectStats()
		s := c.FCT.ByClass(metrics.Short)
		fmt.Printf("%-22s short FCT: mean %6.1fms  p95 %6.1fms | overall %6.1fms | SE %.2f | fairness %.2f\n",
			name, s.Mean.Milliseconds(), s.P95.Milliseconds(),
			c.FCT.Overall().Mean.Milliseconds(), st.MeanSpectralEff, st.MeanFairnessIndex)
	}
	fmt.Println("LTE cell, 16 UEs, 10 MHz, load 0.7, heavy-tailed cellular workload:")
	show("PF (legacy)", pf)
	show(outran.Scheduler().Name(), outran)

	ps := pf.FCT.ByClass(metrics.Short)
	os := outran.FCT.ByClass(metrics.Short)
	if ps.P95 > 0 {
		fmt.Printf("\nOutRAN short-flow p95 improvement: %.0f%%\n",
			(1-float64(os.P95)/float64(ps.P95))*100)
	}
}
