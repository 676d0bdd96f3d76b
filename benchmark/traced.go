package main

import (
	"fmt"
	"os"
	"runtime"

	"outran/internal/channel"
	"outran/internal/core"
	"outran/internal/deploy"
	"outran/internal/mac"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// tracedResult is the outcome of the span-traced phase.
type tracedResult struct {
	PerLayer       map[string]float64 `json:"per_layer"`
	Attempted      int                `json:"ops_attempted"`
	Failed         int                `json:"ops_failed"`
	SimDigest      string             `json:"sim_digest"`
	WorkloadDigest string             `json:"workload_digest"`
	Spans          int                `json:"spans"`
}

// refPasses is how many untraced reference passes the traced phase
// runs on its sub-seed. Two identical passes are also the in-process
// proof that the simulator is deterministic.
const refPasses = 2

// runTraced is the span-traced phase of one workload run, all on the
// seed's first sub-seed: untraced reference passes, a PF reference
// pass on identical traffic, the workload's extra passes, then the
// stepped, span-traced single-cell pass and the stand-alone probes.
func runTraced(w workloadDef, e env, seed uint64, quick bool, log *spanLog) (tracedResult, error) {
	sub := subSeeds(seed, 1)[0]
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	res := tracedResult{PerLayer: m}

	// Untraced reference passes; allocation is measured over the last.
	var ref outcome
	var walls []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < refPasses; i++ {
		last := i == refPasses-1
		runtime.GC()
		if last {
			runtime.ReadMemStats(&ms0)
		}
		o, err := runPass(w, e, passOpts{sub: sub, sched: ran.SchedOutRAN, keepDir: last})
		if last {
			runtime.ReadMemStats(&ms1)
		}
		if o.dir != "" {
			defer os.RemoveAll(o.dir)
		}
		if err != nil {
			return res, fmt.Errorf("reference pass %d: %w", i, err)
		}
		if err := checkOutcome(w, sub, o); err != nil {
			return res, fmt.Errorf("reference pass %d: %w", i, err)
		}
		if i > 0 && o.digest != ref.digest {
			return res, fmt.Errorf("reference pass %d: sim_digest %s differs from pass 0's %s: the simulator is not deterministic", i, o.digest, ref.digest)
		}
		walls = append(walls, o.nsPerCellTTI())
		ref = o
	}
	refWall := median(walls)
	lo, hi := minMax(walls)
	m["bench.reps"] = refPasses
	m["bench.wall_spread"] = (hi - lo) / refWall
	res.SimDigest = ref.digest
	res.Attempted = ref.counters.FlowsStarted
	res.Failed = ref.counters.FlowsStarted - ref.counters.FlowsCompleted
	if err := checkFailedShare(res.Attempted, res.Failed); err != nil {
		return res, err
	}
	var err error
	if res.WorkloadDigest, err = workloadDigest(w, sub); err != nil {
		return res, err
	}

	cellTTIs := float64(ref.cellTTIs)
	m["runtime.alloc_bytes_per_cell_tti"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / cellTTIs
	m["runtime.mallocs_per_cell_tti"] = float64(ms1.Mallocs-ms0.Mallocs) / cellTTIs
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	exactMetrics(m, w, ref)

	// PF reference pass on identical traffic. PF may leave more flows
	// unfinished than OutRAN does; only its invariants are checked.
	pf, err := runPass(w, e, passOpts{sub: sub, sched: ran.SchedPF})
	if err != nil {
		return res, fmt.Errorf("PF reference pass: %w", err)
	}
	if err := checkOutcome(w, sub, pf); err != nil {
		return res, fmt.Errorf("PF reference pass: %w", err)
	}
	m["ref.pf_fct_short_p99_ms"] = pf.short.P99.Milliseconds()
	m["ref.pf_wall_ns_per_cell_tti"] = pf.nsPerCellTTI()
	m["ref.fct_short_p99_gain_x"] = ratio(pf.short.P99.Milliseconds(), ref.short.P99.Milliseconds())
	m["ref.se_vs_pf_x"] = ratio(ref.counters.MeanSpectralEff, pf.counters.MeanSpectralEff)
	m["ref.fairness_vs_pf_x"] = ratio(ref.counters.MeanFairnessIndex, pf.counters.MeanFairnessIndex)
	pf = outcome{}

	if w.eventTrace {
		// Same run with the event tracer off: proves the trace observes
		// without perturbing, and prices it.
		runtime.GC()
		nilT, err := runPass(w, e, passOpts{sub: sub, sched: ran.SchedOutRAN, noTrace: true})
		if err != nil {
			return res, fmt.Errorf("nil-tracer pass: %w", err)
		}
		if nilT.digest != ref.digest {
			return res, fmt.Errorf("nil-tracer pass: sim_digest %s differs from the traced configuration's %s: the event trace perturbs the simulation", nilT.digest, ref.digest)
		}
		m["obs.trace_events"] = float64(ref.traceEvents)
		m["obs.trace_bytes"] = float64(ref.traceBytes)
		m["obs.trace_overhead_x"] = refWall / nilT.nsPerCellTTI()
		m["obs.trace_ns_per_event"] = (refWall - nilT.nsPerCellTTI()) * cellTTIs / float64(ref.traceEvents)
	}
	if w.deployed() {
		if err := tracedDeploy(w, e, sub, ref, refWall, m, log); err != nil {
			return res, err
		}
	}

	// The stepped single-cell pass. The deployment cannot be stepped
	// from outside, so its first cell is run alone, against an untraced
	// run of that same cell.
	h := w.cellConfigs(sub, ran.SchedOutRAN)[0]
	base, baseWall := ref.digest, refWall
	if w.deployed() {
		cell, err := h.Build()
		if err != nil {
			return res, err
		}
		t0 := now()
		cell.Run(h.Total())
		baseWall = sinceNs(t0) / float64(w.ttisPerCell())
		if base, err = cellDigest(cell); err != nil {
			return res, err
		}
	}
	ref = outcome{}
	runtime.GC()
	tc, err := tracedCellPass(w, h, log)
	if err != nil {
		return res, fmt.Errorf("traced pass: %w", err)
	}
	if tc.digest != base {
		return res, fmt.Errorf("traced pass: sim_digest %s differs from the untraced %s: looking at the run changed it", tc.digest, base)
	}
	tc.fill(m, w, baseWall)
	err = runProbes(h, tc, m, log, quick)
	log.end(tc.root)
	if err != nil {
		return res, err
	}

	m["runtime.peak_rss_mb"] = float64(deploy.PeakRSSBytes()) / (1 << 20)
	res.Spans = len(log.spans)
	if err := log.validate(); err != nil {
		return res, fmt.Errorf("span tree: %w", err)
	}
	return res, checkMetrics(perLayer, m, false)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// exactMetrics fills the per-layer counts that come straight from the
// reference pass's summary: they repeat exactly for a seed.
func exactMetrics(m map[string]float64, w workloadDef, o outcome) {
	c := o.counters
	var harqTx, harqRetx, ckpts float64
	for _, cell := range o.cells {
		reg := cell.Reg.Flatten()
		harqTx += reg["harq_tx"]
		harqRetx += reg["harq_retx"]
		ckpts += reg["checkpoint_writes"]
	}
	m["ran.cell_ttis"] = float64(c.TTIs)
	m["ran.flows_per_sim_s"] = float64(c.FlowsStarted) / float64(w.cells) / w.window.Seconds()
	m["ran.fct_short_p99_ms"] = o.short.P99.Milliseconds()
	m["ran.fct_long_mean_ms"] = o.long.Mean.Milliseconds()
	m["ran.harq_tx"] = harqTx
	m["ran.harq_retx_ratio"] = ratio(harqRetx, harqTx)
	m["ran.harq_failures"] = float64(c.HARQFailures)
	m["ran.buffer_drops"] = float64(c.BufferDrops)
	m["rlc.am_retx_bytes"] = float64(c.AMRetxBytes)
	m["rlc.evictions"] = float64(c.BufferEvictions)
	m["rlc.reassembly_drops"] = float64(c.ReassemblyDrops)
	m["pdcp.decipher_failures"] = float64(c.DecipherFailures)
	m["transport.mean_srtt_ms"] = c.MeanSRTT.Milliseconds()
	m["cn.backhaul_drops"] = float64(c.BackhaulDrops)
	m["deploy.checkpoints"] = ckpts
	m["obs.kpi_records"] = float64(o.kpiRecords)
	m["snapshot.bytes_per_cell"] = o.ckptBytes

	var dec, over uint64
	var sac float64
	for _, cell := range o.cells {
		if iu, ok := cell.Scheduler().(*core.InterUser); ok {
			d, ov, s := iu.Audit()
			dec, over, sac = dec+d, over+ov, sac+s
		}
	}
	m["core.decisions"] = float64(dec)
	m["core.override_ratio"] = ratio(float64(over), float64(dec))
	m["core.sacrifice_mean"] = ratio(sac, float64(dec))
}

// tracedDeploy runs the deployment's opaque traced steps: one run on a
// single worker, whose digest must match the N-worker reference, and a
// resume from the reference run's newest checkpoints.
func tracedDeploy(w workloadDef, e env, sub uint64, ref outcome, refWall float64, m map[string]float64, log *spanLog) error {
	const pass = "deploy"
	root := log.begin(pass, "pass", 0)
	defer log.end(root)

	id := log.begin(pass, "deploy.run.w1", root)
	w1, err := runPass(w, e, passOpts{sub: sub, sched: ran.SchedOutRAN, workers: 1})
	log.end(id)
	if err != nil {
		return fmt.Errorf("1-worker pass: %w", err)
	}
	if w1.digest != ref.digest {
		return fmt.Errorf("1-worker pass: sim_digest %s differs from the %d-worker %s", w1.digest, e.workers, ref.digest)
	}
	m["deploy.parallel_efficiency"] = w1.nsPerCellTTI() / (float64(e.workers) * refWall)
	m["deploy.barriers"] = float64(w.barriers())

	cfg := w.deployConfig(sub, ran.SchedOutRAN, e.workers, ref.dir)
	id = log.begin(pass, "deploy.resume", root)
	res, err := deploy.Resume(cfg)
	m["deploy.resume_s"] = log.end(id) / 1e9
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	var resumed outcome
	if err := resumed.fromDeploy(res); err != nil {
		return err
	}
	if resumed.digest != ref.digest {
		return fmt.Errorf("resume: sim_digest %s differs from the uninterrupted run's %s", resumed.digest, ref.digest)
	}
	if _, err := checkKPIStream(w, cfg.KPIPath); err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	return nil
}

// tracedCell is what the stepped pass saw.
type tracedCell struct {
	root   int // the pass's root span, still open for the probes
	cell   *ran.Cell
	flows  []workload.FlowSpec
	digest string

	newCellNs, buildNs, scheduleNs float64
	segmentNs, runNs, summaryNs    float64
	ttis, events                   uint64

	boundaries                 int
	backlogged, cqiSum, cqiN   float64
	pending                    float64
	cqiNs, coreNs, pfNs, kpiNs []float64
	phases                     map[string]float64
	trace                      *countSink
}

// tracedCellPass rebuilds the run step by step — every step of
// ran.Harness.Build is a public call, made here in the same order —
// with a span around each step, the run itself split into segments,
// and shadow probes at the segment boundaries. The shadow schedulers
// and channel models only read the live cell, so the pass must
// reproduce the untraced digest; the caller checks that it does.
func tracedCellPass(w workloadDef, h ran.Harness, log *spanLog) (*tracedCell, error) {
	const pass = "cell"
	tc := &tracedCell{root: log.begin(pass, "pass", 0)}
	tc.trace = attachTracer(w, &h)

	id := log.begin(pass, "ran.new_cell", tc.root)
	cell, err := ran.NewCell(h.Config)
	tc.newCellNs = log.end(id)
	if err != nil {
		return nil, err
	}
	tc.cell = cell
	if h.Snapshots {
		cell.EnableSnapshots()
	}
	if h.Tracer != nil {
		cell.SetTracer(h.Tracer)
	}
	cfg := cell.Config()
	wseed := h.WorkloadSeed
	if wseed == 0 {
		wseed = cfg.Seed + 7919
	}
	id = log.begin(pass, "workload.build", tc.root)
	src, err := cfg.Workload.Build(workload.Env{
		NumUEs:      cfg.NumUEs,
		CapacityBps: cell.EffectiveCapacityBps(),
		Span:        h.Warmup + h.Window + h.Tail,
	}, rng.New(wseed))
	if err == nil {
		tc.flows = workload.Collect(src)
	}
	tc.buildNs = log.end(id)
	if err != nil {
		return nil, err
	}
	id = log.begin(pass, "ran.schedule_source", tc.root)
	cell.ScheduleSource(workload.SliceSource(tc.flows), h.Warmup, h.Warmup+h.Window)
	tc.scheduleNs = log.end(id)
	if h.Warmup > 0 {
		cell.ScheduleTrackerReset(h.Warmup)
	}
	if h.Window > 0 {
		cell.ScheduleTrackerFreeze(h.Warmup + h.Window)
	}
	cell.SetPhaseProfiler(obs.NewPhaseProfiler())

	// Shadows: same scheduler types and channel scenario as the cell,
	// private state, so probing them costs what the live ones cost
	// without touching the run.
	shadowPF := mac.NewPF()
	shadowIU, err := core.NewInterUser(mac.PFMetric, "PF", cfg.OutRAN.Epsilon)
	if err != nil {
		return nil, err
	}
	shadowIU.TopK = cfg.OutRAN.TopK
	chr := rng.New(cfg.Seed)
	shadowCh := make([]*channel.Model, cfg.NumUEs)
	for i := range shadowCh {
		shadowCh[i] = cfg.Scenario.NewUEChannel(cfg.Grid.CarrierHz, chr)
	}
	seg := segment
	if w.kpiEvery > 0 {
		seg = w.kpiEvery // the deployment samples KPIs at its barriers
	}
	if h.Total() < 20*seg {
		seg = h.Total() / 20 // quick horizons: keep some boundaries
	}

	run := log.begin(pass, "ran.run", tc.root)
	for t := seg; ; t += seg {
		t = min(t, h.Total())
		id := log.begin(pass, "ran.run.segment", run)
		cell.Run(t)
		tc.segmentNs += log.end(id)
		tc.boundary(log, pass, run, t, shadowPF, shadowIU, shadowCh)
		if t == h.Total() {
			break
		}
	}
	tc.runNs = log.end(run)

	id = log.begin(pass, "metrics.summary", tc.root)
	sum := cell.Summary()
	tc.summaryNs = log.end(id)
	tc.ttis = sum.Counters.TTIs
	tc.events = cell.Eng.Processed()
	tc.phases = sum.Phases
	if err := cell.AuditInvariants(); err != nil {
		return nil, fmt.Errorf("invariants: %w", err)
	}
	if tc.trace != nil {
		if err := tc.trace.Close(); err != nil {
			return nil, fmt.Errorf("event trace: %w", err)
		}
	}
	tc.digest, err = cellDigest(cell)
	return tc, err
}

// boundary looks at the paused cell: exact state samples, then the
// timed shadow probes, each a child span of the run.
func (tc *tracedCell) boundary(log *spanLog, pass string, run int, t sim.Time, pf *mac.MetricScheduler, iu *core.InterUser, chs []*channel.Model) {
	cell := tc.cell
	users, grid := cell.Users(), cell.Grid()
	tc.boundaries++
	tc.pending += float64(cell.Eng.Pending())
	for _, u := range users {
		if u.Buffer.Backlogged() {
			tc.backlogged++
		}
		for _, q := range u.SubbandCQI {
			tc.cqiSum += float64(q)
			tc.cqiN++
		}
	}

	id := log.begin(pass, "channel.cqi_sweep", run)
	evals := 0
	for _, ch := range chs {
		for sb := 0; sb < ch.NumSubbands(); sb++ {
			ch.CQI(t, sb)
			evals++
		}
	}
	tc.cqiNs = append(tc.cqiNs, log.end(id)/float64(evals))

	id = log.begin(pass, "core.allocate", run)
	iu.Allocate(t, users, grid)
	tc.coreNs = append(tc.coreNs, log.end(id))

	id = log.begin(pass, "mac.allocate", run)
	pf.Allocate(t, users, grid)
	tc.pfNs = append(tc.pfNs, log.end(id))

	if cell.KPIEnabled() {
		id = log.begin(pass, "obs.kpi_sample", run)
		cell.SampleKPI(t)
		tc.kpiNs = append(tc.kpiNs, log.end(id))
	}
}

// fill turns what the stepped pass saw into per-layer metrics. wall is
// the untraced run's wall per TTI.
func (tc *tracedCell) fill(m map[string]float64, w workloadDef, wall float64) {
	cfg := tc.cell.Config()
	ttis, n := float64(tc.ttis), float64(tc.boundaries)
	m["ran.build_ns_per_ue"] = tc.newCellNs / float64(cfg.NumUEs)
	m["ran.schedule_ns_per_flow"] = ratio(tc.scheduleNs, float64(len(tc.flows)))
	m["workload.flows"] = float64(len(tc.flows))
	m["workload.bytes"] = float64(workload.TotalBytes(tc.flows))
	m["workload.build_ns_per_flow"] = ratio(tc.buildNs, float64(len(tc.flows)))
	m["metrics.summary_ns"] = tc.summaryNs

	segPerTTI := tc.segmentNs / ttis
	attributed := 0.0
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		m["ran.phase_"+ph.Name()+"_ns_per_tti"] = tc.phases[ph.Name()]
		attributed += tc.phases[ph.Name()]
	}
	m["ran.phase_unattributed_ns_per_tti"] = segPerTTI - attributed
	m["ran.phase_unattributed_share"] = (segPerTTI - attributed) / segPerTTI
	m["bench.span_overhead_share"] = tc.runNs/ttis/wall - 1

	m["sim.events_per_tti"] = float64(tc.events) / ttis
	m["sim.pending_mean"] = tc.pending / n
	m["phy.mean_cqi"] = ratio(tc.cqiSum, tc.cqiN)
	m["mac.backlogged_ues_mean"] = tc.backlogged / n

	subbands := len(tc.cell.Users()[0].SubbandCQI)
	evals := float64(cfg.NumUEs*subbands) * float64(cfg.Grid.TTI()) / float64(cfg.CQIPeriod)
	m["channel.sinr_evals_per_tti"] = evals
	m["channel.cqi_eval_ns"] = median(tc.cqiNs)
	m["channel.est_share"] = evals * median(tc.cqiNs) / wall
	m["mac.pf_allocate_ns"] = median(tc.pfNs)
	m["core.allocate_ns"] = median(tc.coreNs)
	m["core.est_share"] = median(tc.coreNs) / wall
	m["obs.kpi_sample_ns"] = median(tc.kpiNs)
}
