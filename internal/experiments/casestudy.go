package experiments

import (
	"fmt"

	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("fig18a", Fig18a)
	register("fig18b", Fig18b)
	register("fig18c", Fig18c)
	register("fig18d", Fig18d)
}

// fairnessWindows is the T_f sweep of the ablation study. The largest
// values behave like MT (fairness window longer than the run).
var fairnessWindows = []sim.Time{
	10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second, 10 * sim.Second, 100 * sim.Second,
}

// Fig18a reproduces the PF trade-off frontier: spectral efficiency vs
// fairness as the fairness window T_f grows from RR-like (10 ms) to
// MT-like (100 s / MT).
func Fig18a(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)
	t := Table{
		Title:  "Fig 18(a): PF frontier across fairness windows T_f",
		Header: []string{"T_f", "SE_bit/s/Hz", "fairness"},
	}
	var pts []point
	for _, tf := range fairnessWindows {
		cfg := baseLTE(opt, ran.SchedPF)
		cfg.FairnessWindow = tf
		pts = append(pts, point{cfg, spec, opt})
	}
	pts = append(pts, point{baseLTE(opt, ran.SchedMT), spec, opt})
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		label := "MT"
		if i < len(fairnessWindows) {
			label = fairnessWindows[i].String()
		}
		t.Rows = append(t.Rows, []string{label, f3(r.Stats.MeanSpectralEff), f3(r.Stats.MeanFairnessIndex)})
	}
	return []Table{t}, nil
}

// Fig18b is the component ablation: legacy scheduler vs legacy +
// intra-user only (eps=0) vs full OutRAN, across fairness windows and
// MT — normalized average FCT as in the paper.
func Fig18b(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)
	t := Table{
		Title:  "Fig 18(b): ablation — normalized avg FCT (legacy / +intra-user / full OutRAN)",
		Header: []string{"T_f", "legacy_ms", "intra_ms", "outran_ms", "intra_norm", "outran_norm", "legacy_n", "intra_n", "outran_n"},
	}
	// Each row is three points: legacy, + intra-user only (eps=0), and
	// full OutRAN configured by set — PF at every fairness window, then
	// OutRAN wrapping the MT metric.
	var pts []point
	var labels []string
	row := func(label string, legacy ran.Config, set func(*ran.Config)) {
		full := baseLTE(opt, ran.SchedOutRAN)
		set(&full)
		intra := full
		intra.OutRAN.Epsilon = 0
		pts = append(pts, point{legacy, spec, opt}, point{intra, spec, opt}, point{full, spec, opt})
		labels = append(labels, label)
	}
	for _, tf := range fairnessWindows {
		legacy := baseLTE(opt, ran.SchedPF)
		legacy.FairnessWindow = tf
		row(tf.String(), legacy, func(c *ran.Config) { c.FairnessWindow = tf })
	}
	row("MT", baseLTE(opt, ran.SchedMT), func(c *ran.Config) { c.InnerScheduler = ran.SchedMT })

	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	for i, label := range labels {
		l, in, f := res[3*i].FCT.Overall(), res[3*i+1].FCT.Overall(), res[3*i+2].FCT.Overall()
		t.Rows = append(t.Rows, []string{label, ms(l.Mean), ms(in.Mean), ms(f.Mean), ratio(in.Mean, l.Mean), ratio(f.Mean, l.Mean),
			sample(l), sample(in), sample(f)})
	}
	return []Table{t}, nil
}

// Fig18c compares the RLC AM and UM modes under PF and OutRAN —
// short-flow FCT tail, plus the AM bandwidth-waste counters.
func Fig18c(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	spec := workload.PoissonSpec("lte", 0.6)
	t := Table{
		Title:  "Fig 18(c): RLC AM vs UM mode, PF vs OutRAN",
		Header: []string{"mode+sched", "S_mean_ms", "S_p95_ms", "S_p99_ms", "SE", "fairness", "retx_KB", "S_n"},
	}
	variants := []struct {
		name  string
		mode  ran.RLCMode
		sched ran.SchedulerKind
	}{
		{"AM+PF", ran.AM, ran.SchedPF},
		{"AM+OutRAN", ran.AM, ran.SchedOutRAN},
		{"UM+PF", ran.UM, ran.SchedPF},
		{"UM+OutRAN", ran.UM, ran.SchedOutRAN},
	}
	var pts []point
	for _, v := range variants {
		cfg := baseLTE(opt, v.sched)
		cfg.RLC = v.mode
		pts = append(pts, point{cfg, spec, opt})
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		s := r.FCT.ByClass(metrics.Short)
		t.Rows = append(t.Rows, []string{
			variants[i].name, ms(s.Mean), ms(s.P95), ms(s.P99),
			f3(r.Stats.MeanSpectralEff), f3(r.Stats.MeanFairnessIndex),
			fmt.Sprintf("%d", r.Stats.AMRetxBytes/1024), sample(s),
		})
	}
	return []Table{t}, nil
}

// Fig18d reproduces the priority-reset case study: an incast-like
// burst workload (8 KB flows, 10% of volume) on top of the LTE
// distribution at 80% load; the reset period S sweeps from none down
// to 100 ms, trading short-flow gains for long-flow protection.
func Fig18d(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	t := Table{
		Title:  "Fig 18(d): priority reset period vs FCT (normalized to PF)",
		Header: []string{"reset", "S_avg_norm", "L_avg_norm", "S_avg_ms", "L_avg_ms", "S_p95_ms", "S_n", "L_n"},
	}

	// The base workload takes 90% of the volume; the incast class the
	// remaining 10%, as synchronized 8 KB bursts over the whole span.
	spec := workload.Spec{
		Load: 0.8,
		Classes: []workload.ClassSpec{
			{Kind: workload.ClassWeb, Share: 0.9},
			{Kind: workload.ClassIncast, Share: 0.1, Size: 8 * 1024, Burst: 12},
		},
	}
	resets := []struct {
		label  string
		period sim.Time
	}{
		{"none", 0},
		{"10s", 10 * sim.Second},
		{"1s", sim.Second},
		{"500ms", 500 * sim.Millisecond},
		{"200ms", 200 * sim.Millisecond},
		{"100ms", 100 * sim.Millisecond},
	}
	pts := []point{{baseLTE(opt, ran.SchedPF), spec, opt}}
	for _, rs := range resets {
		cfg := baseLTE(opt, ran.SchedOutRAN)
		cfg.OutRAN.ResetPeriod = rs.period
		pts = append(pts, point{cfg, spec, opt})
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	pfS := res[0].FCT.ByClass(metrics.Short)
	pfL := res[0].FCT.ByClass(metrics.Long)
	for i, rs := range resets {
		s := res[1+i].FCT.ByClass(metrics.Short)
		l := res[1+i].FCT.ByClass(metrics.Long)
		t.Rows = append(t.Rows, []string{
			rs.label, ratio(s.Mean, pfS.Mean), ratio(l.Mean, pfL.Mean), ms(s.Mean), ms(l.Mean), ms(s.P95), sample(s), sample(l),
		})
	}
	t.Rows = append(t.Rows, []string{"PF", "1.000", "1.000", ms(pfS.Mean), ms(pfL.Mean), ms(pfS.P95), sample(pfS), sample(pfL)})
	return []Table{t}, nil
}
