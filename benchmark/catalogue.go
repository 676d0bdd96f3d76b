package main

// metricDef describes one reported metric. The tables below are the
// program's source of truth; BENCHMARK.json mirrors them and the tests
// fail if the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	kind   string  // "host" (wall clock, memory: noisy) or "sim" (repeats exactly for a seed)
	how    string  // source call or definition, for the README catalogue
}

// endToEnd lists the metrics a user of the simulator sees, each the
// median over the timed passes. Every pass draws its own traffic from
// the seed, so one unlucky arrival sequence cannot move a median. The
// bounds are three times the spread measured across ten seeds (README,
// "Bounds"); the tail and long-flow FCTs vary more across seeds than
// any admissible bound and are reported per layer instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "host", "median of 15 set-ups: ran.Harness.Build once per cell, serially"},
	{"wall_ns_per_cell_tti", "ns", "lower", 0.25, "host", "Cell.Run(h.Total()) or deploy.Run wall / (cells x TTIs)"},
	{"live_heap_mb", "MB", "lower", 0.25, "host", "MemStats.HeapAlloc after runtime.GC(), finished cells of the last pass still referenced"},
	{"fct_short_p50_ms", "ms", "lower", 0.15, "sim", "Summary().FCTShort.P50 (deployment aggregate for city-ops)"},
	{"spectral_eff_bps_hz", "bit/s/Hz", "higher", 0.25, "sim", "Counters.MeanSpectralEff"},
	{"fairness_jain", "index", "higher", 0.25, "sim", "Counters.MeanFairnessIndex (union Jain index for city-ops)"},
}

// timedInfo lists the simulated outcomes the timed phase also prints,
// as medians over its passes, without a bound: across seeds they are
// too unsteady to gate on, at equal seed they repeat exactly.
var timedInfo = []metricDef{
	{"fct_short_p99_ms", "ms", "lower", 0, "sim", "Summary().FCTShort.P99, the paper's headline outcome"},
	{"fct_long_mean_ms", "ms", "lower", 0, "sim", "Summary().FCTLong.Mean, the cost side of the trade"},
}

// perLayer lists the single-layer metrics of the traced run, grouped
// by the module they belong to (the prefix before the first dot).
// "exact" metrics repeat exactly for a seed; "probe" metrics are timed
// from the benchmark around public calls.
var perLayer = []metricDef{
	{"ran.cell_ttis", "count", "higher", 0, "sim", "exact: Counters.TTIs"},
	{"ran.flows_per_sim_s", "1/s", "higher", 0, "sim", "exact: recorded flows started / recorded window"},
	{"ran.fct_short_p99_ms", "ms", "lower", 0, "sim", "exact: this pass's Summary().FCTShort.P99 (base of ref.fct_short_p99_gain_x)"},
	{"ran.fct_long_mean_ms", "ms", "lower", 0, "sim", "exact: Summary().FCTLong.Mean, the cost side of the trade"},
	{"ran.harq_tx", "count", "lower", 0, "sim", "exact: registry harq_tx"},
	{"ran.harq_retx_ratio", "ratio", "lower", 0, "sim", "exact: registry harq_retx / harq_tx"},
	{"ran.harq_failures", "count", "lower", 0, "sim", "exact: Counters.HARQFailures"},
	{"ran.buffer_drops", "count", "lower", 0, "sim", "exact: Counters.BufferDrops"},
	{"ran.build_ns_per_ue", "ns", "lower", 0, "host", "probe: ran.NewCell span / UEs"},
	{"ran.schedule_ns_per_flow", "ns", "lower", 0, "host", "probe: Cell.ScheduleSource span / flows"},
	{"ran.phase_phy_ns_per_tti", "ns", "lower", 0, "host", "obs.PhaseProfiler in the traced pass"},
	{"ran.phase_mac_ns_per_tti", "ns", "lower", 0, "host", "obs.PhaseProfiler in the traced pass"},
	{"ran.phase_rlc_ns_per_tti", "ns", "lower", 0, "host", "obs.PhaseProfiler in the traced pass"},
	{"ran.phase_pdcp_ns_per_tti", "ns", "lower", 0, "host", "obs.PhaseProfiler in the traced pass"},
	{"ran.phase_obs_ns_per_tti", "ns", "lower", 0, "host", "obs.PhaseProfiler in the traced pass"},
	{"ran.phase_unattributed_ns_per_tti", "ns", "lower", 0, "host", "traced segment wall per TTI minus the five phases"},
	{"ran.phase_unattributed_share", "ratio", "lower", 0, "host", "unattributed / traced segment wall per TTI"},
	{"sim.events_per_tti", "count", "lower", 0, "sim", "exact: Engine.Processed / TTIs"},
	{"sim.pending_mean", "count", "lower", 0, "sim", "exact: Engine.Pending sampled at segment boundaries"},
	{"sim.event_ns", "ns", "lower", 0, "host", "probe: At + dispatch on a bare sim.Engine pre-filled to pending_mean"},
	{"channel.sinr_evals_per_tti", "count", "lower", 0, "sim", "exact: UEs x sub-bands x TTI / CQI period"},
	{"channel.cqi_eval_ns", "ns", "lower", 0, "host", "probe: Model.CQI swept over shadow models at segment boundaries"},
	{"channel.est_share", "ratio", "lower", 0, "host", "sinr_evals_per_tti x cqi_eval_ns / untraced wall per TTI"},
	{"phy.mean_cqi", "index", "higher", 0, "sim", "exact: mean SubbandCQI over Cell.Users() at segment boundaries"},
	{"mac.backlogged_ues_mean", "count", "lower", 0, "sim", "exact: users with Buffer.Backlogged() at segment boundaries"},
	{"mac.pf_allocate_ns", "ns", "lower", 0, "host", "probe: shadow mac.NewPF().Allocate on the live users"},
	{"core.allocate_ns", "ns", "lower", 0, "host", "probe: shadow core.NewInterUser(PFMetric).Allocate on the live users"},
	{"core.est_share", "ratio", "lower", 0, "host", "core.allocate_ns / untraced wall per TTI"},
	{"core.decisions", "count", "higher", 0, "sim", "exact: InterUser.Audit() on Cell.Scheduler()"},
	{"core.override_ratio", "ratio", "higher", 0, "sim", "exact: overrides / decisions, the useful-outcome ratio of the epsilon pass"},
	{"core.sacrifice_mean", "ratio", "lower", 0, "sim", "exact: summed metric sacrifice / decisions"},
	{"rlc.pdu_ns", "ns", "lower", 0, "host", "probe: UMTx.Enqueue -> Pull(grant) -> UMRx.Receive per PDU"},
	{"rlc.am_retx_bytes", "B", "lower", 0, "sim", "exact: Counters.AMRetxBytes (0: no workload runs RLC AM, see README)"},
	{"rlc.evictions", "count", "lower", 0, "sim", "exact: Counters.BufferEvictions"},
	{"rlc.reassembly_drops", "count", "lower", 0, "sim", "exact: Counters.ReassemblyDrops"},
	{"pdcp.sdu_ns", "ns", "lower", 0, "host", "probe: Tx.Submit + Rx.OnSDU per packet"},
	{"pdcp.decipher_failures", "count", "lower", 0, "sim", "exact: Counters.DecipherFailures, must be 0"},
	{"transport.segment_ns", "ns", "lower", 0, "host", "probe: Sender <-> Receiver over a fixed-delay pipe on a bare engine, per segment"},
	{"transport.mean_srtt_ms", "ms", "lower", 0, "sim", "exact: Counters.MeanSRTT"},
	{"cn.backhaul_drops", "count", "lower", 0, "sim", "exact: Counters.BackhaulDrops"},
	{"workload.flows", "count", "higher", 0, "sim", "exact: flows in the generated schedule"},
	{"workload.bytes", "B", "higher", 0, "sim", "exact: workload.TotalBytes of the schedule"},
	{"workload.build_ns_per_flow", "ns", "lower", 0, "host", "probe: Spec.Build + Collect span / flows"},
	{"metrics.record_ns", "ns", "lower", 0, "host", "probe: FCTRecorder.Record (exact recorder; streaming on city-ops)"},
	{"metrics.summary_ns", "ns", "lower", 0, "host", "probe: Cell.Summary() on the finished cell"},
	{"obs.trace_events", "count", "lower", 0, "sim", "exact: events emitted into the JSONL sink (cell-traced)"},
	{"obs.trace_bytes", "B", "lower", 0, "sim", "exact: JSONLSink.BytesWritten (cell-traced)"},
	{"obs.trace_ns_per_event", "ns", "lower", 0, "host", "(traced-config wall - nil-tracer wall) / events (cell-traced)"},
	{"obs.trace_overhead_x", "ratio", "lower", 0, "host", "traced-config wall / nil-tracer wall (cell-traced)"},
	{"obs.kpi_records", "count", "higher", 0, "sim", "exact: records in the KPI stream (city-ops)"},
	{"obs.kpi_sample_ns", "ns", "lower", 0, "host", "probe: Cell.SampleKPI at segment boundaries (city-ops cell run alone)"},
	{"snapshot.bytes_per_cell", "B", "lower", 0, "sim", "exact: mean size of the newest checkpoint files (city-ops)"},
	{"snapshot.encode_ns_per_cell", "ns", "lower", 0, "host", "probe: Cell.Snapshot() at mid-window (city-ops)"},
	{"snapshot.restore_ns_per_cell", "ns", "lower", 0, "host", "probe: snapshot.Open + RestoreSnapshot into a fresh cell (city-ops)"},
	{"deploy.checkpoints", "count", "higher", 0, "sim", "exact: registry checkpoint_writes summed over cells (city-ops)"},
	{"deploy.barriers", "count", "lower", 0, "sim", "exact: distinct KPI and checkpoint instants inside the horizon (city-ops)"},
	{"deploy.parallel_efficiency", "ratio", "higher", 0, "host", "wall at Workers=1 / (workers x wall at Workers=N) (city-ops)"},
	{"deploy.resume_s", "s", "lower", 0, "host", "deploy.Resume from the run's newest checkpoints (city-ops)"},
	{"runtime.alloc_bytes_per_cell_tti", "B", "lower", 0, "host", "MemStats.TotalAlloc delta over an untraced pass / cell-TTIs"},
	{"runtime.mallocs_per_cell_tti", "count", "lower", 0, "host", "MemStats.Mallocs delta over an untraced pass / cell-TTIs"},
	{"runtime.gc_cycles", "count", "lower", 0, "host", "MemStats.NumGC delta over an untraced pass"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "host", "MemStats.PauseTotalNs delta over an untraced pass"},
	{"runtime.peak_rss_mb", "MB", "lower", 0, "host", "deploy.PeakRSSBytes at the end of the run"},
	{"ref.pf_fct_short_p99_ms", "ms", "lower", 0, "sim", "PF reference pass on identical traffic"},
	{"ref.pf_wall_ns_per_cell_tti", "ns", "lower", 0, "host", "PF reference pass: the legacy-scheduler path"},
	{"ref.fct_short_p99_gain_x", "ratio", "higher", 0, "sim", "ref.pf_fct_short_p99_ms / ran.fct_short_p99_ms"},
	{"ref.se_vs_pf_x", "ratio", "higher", 0, "sim", "OutRAN MeanSpectralEff / PF MeanSpectralEff"},
	{"ref.fairness_vs_pf_x", "ratio", "higher", 0, "sim", "OutRAN MeanFairnessIndex / PF MeanFairnessIndex"},
	{"bench.reps", "count", "higher", 0, "host", "untraced reference passes in the traced run"},
	{"bench.wall_spread", "ratio", "lower", 0, "host", "(max - min) / median of the untraced reference passes' wall"},
	{"bench.span_overhead_share", "ratio", "lower", 0, "host", "traced ran.run span / untraced run wall - 1: the cost of looking"},
}
