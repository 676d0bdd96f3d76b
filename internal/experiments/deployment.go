package experiments

import (
	"fmt"

	"outran/internal/deploy"
	"outran/internal/ran"
	"outran/internal/workload"
)

func init() {
	register("deployment", Deployment)
}

// Deployment exercises the multi-cell deployment runtime (paper §7
// across two live cells): PF vs OutRAN on a two-cell deployment with a
// scripted mid-run handover of UE 0 from cell 0 to cell 1. The
// transferred flow state re-anchors MLFQ priorities at the target, so
// OutRAN's short-flow protection survives the migration. One row per
// cell plus the deployment aggregate, including how many flows moved.
func Deployment(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	t := Table{
		Title: "Two-cell deployment with mid-run handover (UE 0: cell 0 -> cell 1)",
		Header: []string{"scheduler", "cell", "flows done", "FCT mean (ms)",
			"FCT p95 (ms)", "short p95 (ms)", "SE (b/s/Hz)", "fairness", "flows moved"},
	}
	spec := workload.PoissonSpec("lte", 0.6)
	// The two cells pool into the "all" row, so each offers half of it.
	win, err := window(baseLTE(opt, ran.SchedPF), spec, share(opt.Flows, 2))
	if err != nil {
		return nil, err
	}
	for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
		res, err := deploy.Run(deploy.Config{
			Cells:   2,
			Workers: opt.Workers,
			Cell:    baseLTE(opt, sched).WithWorkload(spec),
			Warmup:  warmup,
			Window:  win,
			Tail:    pressureTail,
			Drain:   opt.Drain,
			Seed:    opt.Seed,
			Handovers: []deploy.Handover{{
				At:            warmup + win/2,
				UE:            0,
				From:          0,
				To:            1,
				ContinueBytes: 256 << 10,
			}},
		})
		if err != nil {
			return nil, err
		}
		for _, c := range res.Cells {
			s := c.Summary
			t.Rows = append(t.Rows, []string{
				string(sched), fmt.Sprint(c.Cell),
				fmt.Sprint(s.Counters.FlowsCompleted),
				ms(s.FCTOverall.Mean), ms(s.FCTOverall.P95), ms(s.FCTShort.P95),
				f3(s.Counters.MeanSpectralEff), f3(s.Counters.MeanFairnessIndex),
				"-",
			})
		}
		agg := res.Aggregate
		t.Rows = append(t.Rows, []string{
			string(sched), "all",
			fmt.Sprint(agg.Counters.FlowsCompleted),
			ms(agg.FCTOverall.Mean), ms(agg.FCTOverall.P95), ms(agg.FCTShort.P95),
			f3(agg.Counters.MeanSpectralEff), f3(agg.Counters.MeanFairnessIndex),
			fmt.Sprint(agg.FlowsTransferred),
		})
	}
	return []Table{t}, nil
}
