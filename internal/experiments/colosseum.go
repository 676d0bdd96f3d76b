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

// fig19Cells is the Colosseum topology's cell count; a row pools them.
const fig19Cells = 4

// Fig19 reproduces the Colosseum experiments: a four-cell topology (4
// eNodeBs x 4 UEs each, 15 RBs as in the SCOPE configuration) under
// the Rome / Boston / POWDER RF scenarios at cell loads 0.2/0.4/0.6,
// comparing vanilla PF ("srsRAN") against OutRAN on the FCT columns of
// the paper's table. Cells are independent (no inter-cell
// interference, as in the paper's per-cell traffic model); results
// aggregate over the four cells.
func Fig19(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	t := Table{
		Title: "Fig 19: Colosseum-style 4-cell FCT results (PF='srsRAN')",
		Header: []string{"scenario", "load", "sched",
			"overall_ms", "S_ms", "S_p95_ms", "M_ms", "L_ms", "n", "S_n", "M_n", "L_n"},
	}
	scenarios := []struct {
		name string
		sc   channel.Scenario
	}{
		{"Rome (close, moderate)", channel.ColosseumRome()},
		{"Boston (close, fast)", channel.ColosseumBoston()},
		{"POWDER (medium, static)", channel.ColosseumPOWDER()},
	}
	// One row per (scenario, load, scheduler), each fig19Cells points.
	var rows [][]string
	var pts []point
	for _, sc := range scenarios {
		for _, load := range []float64{0.2, 0.4, 0.6} {
			for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
				name := "srsRAN(PF)"
				if sched == ran.SchedOutRAN {
					name = "OutRAN"
				}
				rows = append(rows, []string{sc.name, f2(load), name})
				for cellIdx := 0; cellIdx < fig19Cells; cellIdx++ {
					pts = append(pts, fig19Point(opt, sc.sc, load, sched, cellIdx))
				}
			}
		}
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		agg := &metrics.FCTRecorder{}
		for _, r := range res[i*fig19Cells : (i+1)*fig19Cells] {
			for _, s := range r.FCT.Samples() {
				agg.Record(s)
			}
		}
		all, s, m, l := agg.Overall(), agg.ByClass(metrics.Short), agg.ByClass(metrics.Medium), agg.ByClass(metrics.Long)
		t.Rows = append(t.Rows, append(row,
			ms(all.Mean), ms(s.Mean), ms(s.P95), ms(m.Mean), ms(l.Mean),
			sample(all), sample(s), sample(m), sample(l),
		))
	}
	return []Table{t}, nil
}

// fig19Point is one cell of the four. Each cell is its own seed —
// channel and arrivals both — carried by the point's Options, because
// runPoints seeds every run from the point's opt.Seed; and each offers
// its share of the row's flows.
func fig19Point(opt Options, sc channel.Scenario, load float64, sched ran.SchedulerKind, cellIdx int) point {
	cfg := ran.DefaultLTEConfig()
	cfg.Grid = phy.Colosseum()
	cfg.Scenario = sc
	cfg.NumUEs = 4
	cfg.Scheduler = sched
	opt.Seed += uint64(cellIdx) * 101
	opt.Flows = share(opt.Flows, fig19Cells)
	return point{cfg, workload.PoissonSpec("lte", load), opt}
}
