package experiments

import (
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/workload"
)

func init() {
	register("fig3", Fig3)
	register("fig4", Fig4)
	register("table1", Table1)
}

// Fig3 reproduces the motivation benefit figure: SRJF flow scheduling
// at the eNodeB vs the PF baseline — (a) short-flow average and
// 99th-percentile FCT, (b) sensitivity to per-user buffer size (x1 and
// x5, the 5G-scale buffer the paper cites).
func Fig3(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)

	var pts []point
	for _, bufMul := range []int{1, 5} {
		for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedSRJF} {
			cfg := baseLTE(opt, sched)
			cfg.BufferSDUs = 128 * bufMul
			pts = append(pts, point{cfg, spec, opt})
		}
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	pf1, srjf1, pf5, srjf5 := res[0], res[1], res[2], res[3]

	a := Table{
		Title:  "Fig 3(a): short flow (<10KB) FCT, SRJF vs PF (normalized to PF)",
		Header: []string{"scheduler", "avg_ms", "p99_ms", "avg_norm", "p99_norm", "n"},
	}
	pfS := pf1.FCT.ByClass(metrics.Short)
	srjfS := srjf1.FCT.ByClass(metrics.Short)
	a.Rows = append(a.Rows,
		[]string{"SRJF", ms(srjfS.Mean), ms(srjfS.P99),
			ratio(srjfS.Mean, pfS.Mean), ratio(srjfS.P99, pfS.P99), sample(srjfS)},
		[]string{"PF", ms(pfS.Mean), ms(pfS.P99), "1.000", "1.000", sample(pfS)},
	)

	b := Table{
		Title:  "Fig 3(b): short flow FCT vs per-user buffer size (normalized to PF x1)",
		Header: []string{"buffer", "SRJF_avg_ms", "PF_avg_ms", "SRJF_norm", "PF_norm", "SRJF_n", "PF_n"},
	}
	s5 := srjf5.FCT.ByClass(metrics.Short)
	p5 := pf5.FCT.ByClass(metrics.Short)
	b.Rows = append(b.Rows,
		[]string{"x1", ms(srjfS.Mean), ms(pfS.Mean), ratio(srjfS.Mean, pfS.Mean), "1.000", sample(srjfS), sample(pfS)},
		[]string{"x5", ms(s5.Mean), ms(p5.Mean), ratio(s5.Mean, pfS.Mean), ratio(p5.Mean, pfS.Mean), sample(s5), sample(p5)},
	)
	return []Table{a, b}, nil
}

// Fig4 reproduces the motivation cost figure: spectral efficiency and
// fairness of SRJF vs PF over time.
func Fig4(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)
	res, err := runPoints(opt, []point{
		{baseLTE(opt, ran.SchedPF), spec, opt},
		{baseLTE(opt, ran.SchedSRJF), spec, opt},
	})
	if err != nil {
		return nil, err
	}
	pf, srjf := res[0], res[1]
	summary := Table{
		Title:  "Fig 4: side-effects of SRJF flow scheduling (means over the loaded window)",
		Header: []string{"scheduler", "spectral_eff_bit/s/Hz", "SE_active", "fairness_index", "SE_active_vs_PF", "fair_vs_PF"},
	}
	summary.Rows = append(summary.Rows,
		[]string{"PF", f3(pf.Stats.MeanSpectralEff), f3(pf.ActiveSE), f3(pf.Stats.MeanFairnessIndex), "1.000", "1.000"},
		[]string{"SRJF", f3(srjf.Stats.MeanSpectralEff), f3(srjf.ActiveSE), f3(srjf.Stats.MeanFairnessIndex),
			ratio(srjf.ActiveSE, pf.ActiveSE),
			ratio(srjf.Stats.MeanFairnessIndex, pf.Stats.MeanFairnessIndex)},
	)
	series := Table{
		Title:  "Fig 4 time series: SE and fairness per 50-TTI block",
		Header: []string{"t_s", "PF_SE", "SRJF_SE", "PF_fair", "SRJF_fair"},
	}
	// SRJF's i-th sample, or "-" past its series.
	sj := func(v []float64, i int) string {
		if i < len(v) {
			return f2(v[i])
		}
		return "-"
	}
	times := pf.SampleTimes
	for i := 0; i < len(times); i += max(1, len(times)/20) {
		series.Rows = append(series.Rows, []string{f2(times[i].Seconds()),
			f2(pf.SESamples[i]), sj(srjf.SESamples, i), f2(pf.FairSamples[i]), sj(srjf.FairSamples, i)})
	}
	return []Table{summary, series}, nil
}
