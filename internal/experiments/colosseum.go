package experiments

import (
	"outran/internal/channel"
	"outran/internal/metrics"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/workload"
)

func init() {
	register("fig19", Fig19)
}

// Fig19 reproduces the Colosseum experiments: a four-cell topology (4
// eNodeBs x 4 UEs each, 15 RBs as in the SCOPE configuration) under
// the Rome / Boston / POWDER RF scenarios at cell loads 0.2/0.4/0.6,
// comparing vanilla PF ("srsRAN") against OutRAN on the FCT columns of
// the paper's table. Cells are independent (no inter-cell
// interference, as in the paper's per-cell traffic model); results
// aggregate over the four cells.
func Fig19(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	const numCells = 4
	t := Table{
		Title: "Fig 19: Colosseum-style 4-cell FCT results (PF='srsRAN')",
		Header: []string{"scenario", "load", "sched",
			"overall_ms", "S_ms", "S_p95_ms", "M_ms", "L_ms"},
	}
	scenarios := []struct {
		name string
		sc   channel.Scenario
	}{
		{"Rome (close, moderate)", channel.ColosseumRome()},
		{"Boston (close, fast)", channel.ColosseumBoston()},
		{"POWDER (medium, static)", channel.ColosseumPOWDER()},
	}
	for _, sc := range scenarios {
		for _, load := range []float64{0.2, 0.4, 0.6} {
			for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
				agg := &metrics.FCTRecorder{}
				for cellIdx := 0; cellIdx < numCells; cellIdx++ {
					res, err := fig19Cell(opt, sc.sc, load, sched, cellIdx)
					if err != nil {
						return nil, err
					}
					for _, s := range res.FCT.Samples() {
						agg.Record(s)
					}
				}
				name := "srsRAN(PF)"
				if sched == ran.SchedOutRAN {
					name = "OutRAN"
				}
				t.Rows = append(t.Rows, []string{
					sc.name, f2(load), name,
					ms(agg.Overall().Mean),
					ms(agg.ByClass(metrics.Short).Mean),
					ms(agg.ByClass(metrics.Short).P95),
					ms(agg.ByClass(metrics.Medium).Mean),
					ms(agg.ByClass(metrics.Long).Mean),
				})
			}
		}
	}
	return []Table{t}, nil
}

// fig19Cell runs one cell of the four. Each cell is its own seed —
// channel and arrivals both — carried by the Options copy, because
// runCell seeds every run from opt.Seed.
func fig19Cell(opt Options, sc channel.Scenario, load float64, sched ran.SchedulerKind, cellIdx int) (*runResult, error) {
	cfg := ran.DefaultLTEConfig()
	cfg.Grid = phy.Colosseum()
	cfg.Scenario = sc
	cfg.NumUEs = 4
	cfg.Scheduler = sched
	opt.Seed += uint64(cellIdx) * 101
	return runCell(cfg, workload.PoissonSpec("lte", load), opt)
}
