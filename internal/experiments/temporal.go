package experiments

import (
	"fmt"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("diurnal", Diurnal)
}

// Diurnal is the workload-engine showcase: the same heavy-tailed LTE
// traffic volume, redistributed by the diurnal envelope so the cell
// swings from a quiet trough to a busy peak inside one run, with the
// live KPI time-series sampling the short-flow tail through the swing.
// PF and OutRAN see byte-identical arrival sequences (same spec, same
// workload seed), so every per-interval row is a paired comparison:
// the peak intervals are where queues build and OutRAN's FCT-p99
// protection pays; the troughs show the two schedulers converging.
func Diurnal(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec, _ := workload.Scenario("diurnal", "lte", 0.7)
	scheds := []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN}
	win, err := window(baseLTE(opt, scheds[0]), spec, opt.Flows)
	if err != nil {
		return nil, err
	}

	// Sample the KPI stream ~12 times across the recorded window.
	every := max(win/12, 500*sim.Millisecond)

	// PF and OutRAN run on the worker pool, each into its own slot.
	samples := make([][]obs.KPIRecord, len(scheds))
	cells := make([]*ran.Cell, len(scheds))
	err = deploy.ForEach(len(scheds), opt.Workers, func(i int) error {
		cfg := baseLTE(opt, scheds[i])
		cfg.KPIEvery = every
		h := harness(cfg, spec, opt, win)
		cell, err := h.Build()
		if err != nil {
			return err
		}
		// Drive the cell in KPI segments through the recorded window
		// (the envelope warps arrivals over the whole warmup+window+tail
		// span; sampling windows cut the recorded part of the swing).
		for t := warmup + every; t <= warmup+win; t += every {
			cell.Run(t)
			samples[i] = append(samples[i], cell.SampleKPI(t).Rec)
		}
		cell.Run(h.Total())
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	pf, or := samples[0], samples[1]

	series := Table{
		Title:  "Diurnal swing: per-interval completed flows and FCT p99, PF vs OutRAN",
		Header: []string{"t_s", "flows_PF", "flows_OR", "p99_PF_ms", "p99_OR_ms"},
	}
	for i := range pf {
		row := []string{f2((pf[i].T - warmup).Seconds()), fmt.Sprint(pf[i].WinFlows), "-", f2(pf[i].WinP99Ms), "-"}
		if i < len(or) {
			row[2] = fmt.Sprint(or[i].WinFlows)
			row[4] = f2(or[i].WinP99Ms)
		}
		series.Rows = append(series.Rows, row)
	}

	sum := Table{
		Title:  "Diurnal swing: whole-run comparison (identical arrival sequences)",
		Header: []string{"scheduler", "flows", "S_p95_ms", "S_p99_ms", "overall_p99_ms", "SE_bit/s/Hz", "fairness"},
	}
	for i, c := range cells {
		st := c.CollectStats()
		s := c.FCT.ByClass(metrics.Short)
		sum.Rows = append(sum.Rows, []string{
			string(scheds[i]), fmt.Sprint(st.FlowsCompleted),
			ms(s.P95), ms(s.P99), ms(c.FCT.Overall().P99),
			f3(st.MeanSpectralEff), f3(st.MeanFairnessIndex),
		})
	}
	return []Table{series, sum}, nil
}
