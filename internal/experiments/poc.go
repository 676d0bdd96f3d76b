package experiments

import (
	"fmt"

	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/workload"
)

func init() {
	register("fig7", Fig7)
	register("fig8", Fig8)
}

// Fig7 is the proof-of-concept comparison (§4.3): OutRAN(ε=0.2) vs
// strict MLFQ vs PF — CDFs of spectral efficiency, fairness, and the
// FCT split into short and long flows.
func Fig7(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)

	names := []string{"PF", "OutRAN(eps=0.2)", "StrictMLFQ"}
	res, err := runPoints(opt, []point{
		{baseLTE(opt, ran.SchedPF), spec, opt},
		{baseLTE(opt, ran.SchedOutRAN), spec, opt},
		{baseLTE(opt, ran.SchedStrictMLFQ), spec, opt},
	})
	if err != nil {
		return nil, err
	}

	sys := Table{
		Title:  "Fig 7(a,b): spectral efficiency and fairness distribution (per 50-TTI samples)",
		Header: []string{"scheduler", "SE_mean", "SE_active", "SE_p10", "SE_p90", "fair_mean", "fair_p10", "fair_p90"},
	}
	for i, r := range res {
		se := r.SESamples
		fa := r.FairSamples
		sys.Rows = append(sys.Rows, []string{
			names[i],
			f3(metrics.MeanFloat(se)), f3(r.ActiveSE),
			f3(metrics.FloatPercentile(se, 0.1)), f3(metrics.FloatPercentile(se, 0.9)),
			f3(metrics.MeanFloat(fa)), f3(metrics.FloatPercentile(fa, 0.1)), f3(metrics.FloatPercentile(fa, 0.9)),
		})
	}

	fct := Table{
		Title:  "Fig 7(c): FCT distribution, short (<10KB) and long (>0.1MB) flows",
		Header: []string{"scheduler", "S_mean_ms", "S_p95_ms", "S_p99_ms", "L_mean_ms", "L_p99_ms", "S_n", "L_n"},
	}
	for i, r := range res {
		s := r.FCT.ByClass(metrics.Short)
		l := r.FCT.ByClass(metrics.Long)
		fct.Rows = append(fct.Rows, []string{
			names[i], ms(s.Mean), ms(s.P95), ms(s.P99), ms(l.Mean), ms(l.P99), sample(s), sample(l),
		})
	}
	return []Table{sys, fct}, nil
}

// Fig8 sweeps the relaxation threshold ε, producing the SE-vs-fairness
// frontier of the sensitivity figure, plus the top-K ablation the
// paper argues against in §4.3.
func Fig8(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)

	epsilons := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}
	topKs := []int{2, 4, 8}
	var pts []point
	for _, eps := range epsilons {
		cfg := baseLTE(opt, ran.SchedOutRAN)
		cfg.OutRAN.Epsilon = eps
		pts = append(pts, point{cfg, spec, opt})
	}
	for _, k := range topKs {
		cfg := baseLTE(opt, ran.SchedOutRAN)
		cfg.OutRAN.Epsilon = 0.2
		cfg.OutRAN.TopK = k
		pts = append(pts, point{cfg, spec, opt})
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}

	t := Table{
		Title:  "Fig 8: OutRAN sensitivity to eps (PF baseline at eps=0)",
		Header: []string{"eps", "SE_bit/s/Hz", "SE_active", "fairness", "S_mean_ms", "S_p95_ms", "S_n"},
	}
	for i, eps := range epsilons {
		r := res[i]
		s := r.FCT.ByClass(metrics.Short)
		t.Rows = append(t.Rows, []string{
			f2(eps), f3(r.Stats.MeanSpectralEff), f3(r.ActiveSE), f3(r.Stats.MeanFairnessIndex),
			ms(s.Mean), ms(s.P95), sample(s),
		})
	}

	topk := Table{
		Title:  "Fig 8 ablation: eps relaxation vs top-K candidate set",
		Header: []string{"variant", "SE_bit/s/Hz", "fairness", "S_mean_ms", "S_n"},
	}
	for i, k := range topKs {
		r := res[len(epsilons)+i]
		s := r.FCT.ByClass(metrics.Short)
		topk.Rows = append(topk.Rows, []string{
			fmt.Sprintf("topK=%d", k), f3(r.Stats.MeanSpectralEff), f3(r.Stats.MeanFairnessIndex), ms(s.Mean), sample(s),
		})
	}
	return []Table{t, topk}, nil
}
