package experiments

import (
	"fmt"

	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("audit", AuditExperiment)
}

// AuditExperiment runs a traced OutRAN LTE cell and cross-checks the
// observability layer against the live run: the spectral-efficiency
// and fairness aggregates replayed from the trace's se_sample events
// must equal the CellTracker's own numbers, and the per-decision
// records quantify the §5.4 finding — how much PF metric the
// ε-relaxation sacrifices per override, and how rarely it overrides at
// all. This is the experiment behind the decision-audit walkthrough in
// EXPERIMENTS.md; `outran-trace audit` computes the same aggregates
// from a trace file written by `outran-sim -trace`.
func AuditExperiment(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	cfg := baseLTE(opt, ran.SchedOutRAN)
	cell, err := ran.NewCell(cfg)
	if err != nil {
		return nil, err
	}
	ring := obs.NewRingSink(0)
	cell.SetTracer(obs.NewTracer(ring))

	arrivalSpan := warmup + opt.Duration + pressureTail
	src, err := workload.Poisson(workload.PoissonConfig{
		Dist:            workload.LTECellular(),
		NumUEs:          cfg.NumUEs,
		Load:            0.7,
		CellCapacityBps: cell.EffectiveCapacityBps(),
		Duration:        arrivalSpan,
	}, rng.New(opt.Seed+7919))
	if err != nil {
		return nil, err
	}
	cell.ScheduleSource(src, 0, arrivalSpan)
	cell.ScheduleTrackerReset(warmup)
	cell.ScheduleTrackerFreeze(warmup + opt.Duration)
	cell.Run(arrivalSpan + opt.Drain)
	if err := cell.Tracer().Close(); err != nil {
		return nil, err
	}

	st := cell.CollectStats()
	events := ring.Events()
	a := obs.ComputeAudit(events)

	check := Table{
		Title:  "Trace audit: replayed aggregates vs live run",
		Header: []string{"metric", "from_trace", "live_run", "match"},
	}
	row := func(name string, trace, live float64) {
		match := "yes"
		if trace != live {
			match = fmt.Sprintf("NO (Δ=%.3g)", trace-live)
		}
		check.Rows = append(check.Rows, []string{
			name, fmt.Sprintf("%.6f", trace), fmt.Sprintf("%.6f", live), match,
		})
	}
	row("mean_spectral_eff", a.MeanSE, st.MeanSpectralEff)
	row("mean_fairness", a.MeanFairness, st.MeanFairnessIndex)
	row("mean_active_se", a.MeanActiveSE, cell.Tracker.MeanActiveSE())
	row("ttis", float64(a.TTIs), float64(st.TTIs))
	row("flows_completed", float64(completedIn(events)), float64(st.FlowsCompleted))

	overrideRate := 0.0
	if a.Decisions > 0 {
		overrideRate = float64(a.Overrides) / float64(a.Decisions)
	}
	dec := Table{
		Title:  "§5.4 decision audit: the SE cost of ε-relaxation",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"decisions", fmt.Sprintf("%d", a.Decisions)},
			{"overrides", fmt.Sprintf("%d", a.Overrides)},
			{"override_rate", fmt.Sprintf("%.2f%%", 100*overrideRate)},
			{"mean_candidates", f2(a.CandMean)},
			{"mean_pf_metric_sacrifice", fmt.Sprintf("%.6f", a.SacrificeMean)},
			{"mean_fct_ms", ms(sim.Time(metrics.MeanFloat(fctSamples(cell))))},
		},
	}
	return []Table{check, dec}, nil
}

// completedIn counts completed flow spans in a trace.
func completedIn(events []obs.Event) int {
	n := 0
	for _, f := range obs.Timelines(events) {
		if f.End >= 0 {
			n++
		}
	}
	return n
}

// fctSamples extracts the recorded FCTs as float64 nanoseconds.
func fctSamples(cell *ran.Cell) []float64 {
	samples := cell.FCT.Samples()
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.FCT)
	}
	return out
}
