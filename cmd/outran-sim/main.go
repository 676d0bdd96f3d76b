// Command outran-sim runs a downlink simulation with the chosen
// scheduler and prints the FCT / spectral-efficiency / fairness
// summary — the quickest way to poke at the system. With -cells N it
// becomes a multi-cell deployment executed across a bounded worker
// pool (-parallel), optionally with a scripted §7 inter-cell handover.
//
// Example:
//
//	outran-sim -sched OutRAN -load 0.6 -ues 20 -rbs 50 -dur 8s
//	outran-sim -sched PF -load 0.8 -dist websearch -numerology 1
//	outran-sim -sched OutRAN -trace run.jsonl -json > summary.json
//	outran-sim -cells 4 -parallel 4 -json
//	outran-sim -cells 2 -handover 3s -v
//	outran-sim -workload diurnal -trace-out w.jsonl
//	outran-sim -workload-trace w.jsonl   # byte-identical replay
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// drain is the post-arrival run time that lets in-flight flows finish.
const drain = 12 * sim.Second

func main() {
	sched := flag.String("sched", "OutRAN", "scheduler: PF MT RR SRJF PSS CQA OutRAN StrictMLFQ")
	load := flag.Float64("load", 0.6, "offered cell load (fraction of capacity)")
	ues := flag.Int("ues", 20, "number of UEs per cell")
	rbs := flag.Int("rbs", 50, "resource blocks")
	durFlag := flag.Duration("dur", 0, "arrival window (default 8s)")
	distName := flag.String("dist", "lte", "flow size distribution: lte | mirage | websearch")
	workloadName := flag.String("workload", "", "workload scenario: "+strings.Join(workload.ScenarioNames(), " | ")+" (default: steady poisson from -dist/-load)")
	traceOut := flag.String("trace-out", "", "record the generated workload to this JSONL trace (per cell with -cells: name.cellN.ext); replay with -workload-trace")
	workloadTrace := flag.String("workload-trace", "", "replay a workload trace recorded with -trace-out instead of generating arrivals (per cell with -cells)")
	eps := flag.Float64("eps", 0.2, "OutRAN relaxation threshold")
	mu := flag.Int("numerology", 0, "5G numerology 0-3 (0 = LTE grid)")
	am := flag.Bool("am", false, "use RLC AM instead of UM")
	seed := flag.Uint64("seed", 1, "simulation seed (multi-cell: deployment master seed)")
	cells := flag.Int("cells", 1, "number of cells (multi-cell deployment runtime)")
	parallel := flag.Int("parallel", 0, "max cells executing concurrently (0 = GOMAXPROCS); never changes results")
	handover := flag.Duration("handover", 0, "with -cells >= 2: migrate UE 0 from cell 0 to cell 1 at this sim time (§7 flow-state transfer)")
	ckEvery := flag.Duration("checkpoint-every", 0, "checkpoint every cell's full state at this sim-time cadence (0 = off)")
	ckDir := flag.String("checkpoint-dir", "outran-ckpt", "checkpoint directory (with -checkpoint-every / -resume)")
	resume := flag.Bool("resume", false, "resume a killed checkpointed run from -checkpoint-dir (pass the SAME flags as the original run)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file (per cell with -cells: name.cellN.ext)")
	kpiEvery := flag.Duration("kpi-every", 0, "sample per-cell KPI records at this sim-time cadence (0 = off)")
	kpiPath := flag.String("kpi", "", "write the KPI time-series JSONL to this file (needs -kpi-every; read with outran-trace kpi or outran-top)")
	profileRun := flag.Bool("profile", false, "attribute wall ns/TTI to phy/mac/rlc/pdcp/obs phases (single cell; shown in the summary, never in byte-compared outputs)")
	streamFCT := flag.Bool("stream-fct", false, "record FCTs into bounded-memory streaming histograms instead of retaining per-flow samples")
	exactFCT := flag.Bool("exact-fct", false, "with -cells > 1: opt back into exact per-flow FCT samples (capped per cell; deployments stream by default)")
	jsonOut := flag.Bool("json", false, "print the run summary as JSON instead of text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if _, ok := workload.ByName(*distName); !ok {
		fmt.Fprintf(os.Stderr, "unknown distribution %q\n", *distName)
		os.Exit(2)
	}
	var base ran.Config
	if *mu > 0 {
		base = ran.Default5GConfig(phy.Numerology(*mu))
	} else {
		base = ran.DefaultLTEConfig()
	}
	cfg := base.
		WithTopology(*ues, *rbs).
		ForScheduler(ran.SchedulerKind(*sched)).
		WithSeed(*seed)
	cfg.OutRAN.Epsilon = *eps
	if *am {
		cfg.RLC = ran.AM
	}
	cfg.KPIEvery = sim.Time(*kpiEvery)
	cfg.StreamFCT = *streamFCT

	// The workload rides on the config: a scenario spec, a plain Poisson
	// spec, or a trace replay. The harness pulls from the built Source.
	var spec workload.Spec
	var wlDesc string
	switch {
	case *workloadTrace != "":
		if *workloadName != "" {
			fatal(fmt.Errorf("-workload-trace and -workload are mutually exclusive (the trace fixes the workload)"))
		}
		spec = workload.ReplaySpec(*workloadTrace)
		wlDesc = "trace:" + filepath.Base(*workloadTrace)
	case *workloadName != "":
		var ok bool
		spec, ok = workload.Scenario(*workloadName, *distName, *load)
		if !ok {
			fatal(fmt.Errorf("unknown workload scenario %q (have: %s)", *workloadName, strings.Join(workload.ScenarioNames(), " ")))
		}
		wlDesc = *workloadName + "/" + *distName
	default:
		spec = workload.PoissonSpec(*distName, *load)
		wlDesc = "poisson/" + *distName
	}
	cfg = cfg.WithWorkload(spec)

	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *kpiPath != "" && *kpiEvery <= 0 {
		fatal(fmt.Errorf("-kpi needs -kpi-every > 0"))
	}
	dur := sim.Time(*durFlag)
	if dur <= 0 {
		dur = 8 * sim.Second
	}

	ckcfg := deploy.CheckpointConfig{Every: sim.Time(*ckEvery)}
	if *ckEvery > 0 || *resume {
		ckcfg.Dir = *ckDir
	}
	if *cells > 1 {
		if *profileRun {
			fatal(fmt.Errorf("-profile needs -cells 1 (phase timings are per-cell wall clock)"))
		}
		if *exactFCT && *streamFCT {
			fatal(fmt.Errorf("-exact-fct and -stream-fct are mutually exclusive"))
		}
		runDeployment(cfg, *load, dur, *cells, *parallel, sim.Time(*handover), ckcfg, *resume, *exactFCT, *traceOut, *workloadTrace, *tracePath, *kpiPath, *jsonOut, wlDesc)
	} else {
		if *handover > 0 {
			fatal(fmt.Errorf("-handover needs -cells >= 2"))
		}
		if ckcfg.Enabled() {
			runSingleCheckpointed(cfg, *load, dur, ckcfg, *resume, *traceOut, *tracePath, *kpiPath, *profileRun, *jsonOut, wlDesc)
		} else {
			runSingle(cfg, *load, dur, *traceOut, *tracePath, *kpiPath, *profileRun, *jsonOut, wlDesc)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// runSingle is the classic one-cell run through the shared harness.
// With -kpi-every the run is driven in segments so the cell is sampled
// at every KPI instant; each sample emits one cell-0 record (a
// single-cell run writes no deployment roll-up line).
func runSingle(cfg ran.Config, load float64, dur sim.Time, traceOut, tracePath, kpiPath string, profileRun, jsonOut bool, wlDesc string) {
	h := ran.Harness{
		Config: cfg,
		Window: dur,
		Drain:  drain,
	}
	var tracer *obs.Tracer
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		tracer = obs.NewTracer(obs.NewJSONLSink(f))
		h.Tracer = tracer
	}
	var wf *os.File
	if traceOut != "" {
		var err error
		if wf, err = os.Create(traceOut); err != nil {
			fatal(err)
		}
		h.WorkloadTrace = wf
	}
	cell, err := h.Build()
	if err != nil {
		fatal(err)
	}
	// The workload trace is fully written while the harness schedules
	// the source; close it before the cell runs.
	if wf != nil {
		if err := wf.Close(); err != nil {
			fatal(fmt.Errorf("workload trace: %w", err))
		}
	}
	if profileRun {
		cell.SetPhaseProfiler(obs.NewPhaseProfiler())
	}
	total := h.Total()
	var kf *deploy.KPIFile
	if kpiPath != "" {
		if kf, err = deploy.OpenKPIFile(kpiPath, cfg.KPIEvery); err != nil {
			fatal(err)
		}
	}
	if cfg.KPIEvery > 0 {
		for t := cfg.KPIEvery; t <= total; t += cfg.KPIEvery {
			cell.Run(t)
			sampleSingleKPI(cell, t, kf)
		}
	}
	cell.Run(total)
	if kf != nil {
		if err := kf.Close(); err != nil {
			fatal(fmt.Errorf("kpi: %w", err))
		}
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cell.Summary()); err != nil {
			fatal(err)
		}
	} else {
		printSummary(cell, cfg, load, wlDesc)
	}
}

// sampleSingleKPI folds one KPI instant of a single-cell run and
// appends the record to the stream (when one is open).
func sampleSingleKPI(cell *ran.Cell, t sim.Time, kf *deploy.KPIFile) {
	s := cell.SampleKPI(t)
	s.Rec.Cell = 0
	if kf != nil {
		kf.Emit(&s.Rec)
	}
}

// runSingleCheckpointed is the one-cell run with periodic
// checkpointing: the harness is driven in segments, snapshotting the
// complete cell state at every cadence instant. -resume restores from
// the newest checkpoint, truncates the trace back to its offset, and
// continues — the summary and trace come out byte-identical to an
// uninterrupted run.
func runSingleCheckpointed(cfg ran.Config, load float64, dur sim.Time, ckcfg deploy.CheckpointConfig, resume bool, traceOut, tracePath, kpiPath string, profileRun, jsonOut bool, wlDesc string) {
	ckcfg = ckcfg.WithDefaults()
	total := dur + drain
	ck := deploy.NewCheckpointer(ckcfg, 0)
	var cell *ran.Cell
	var tf *deploy.TraceFile
	var kf *deploy.KPIFile
	var from sim.Time
	if resume {
		_, at, err := deploy.LatestCheckpoint(ckcfg.Dir, 0)
		if err != nil {
			fatal(err)
		}
		var meta deploy.CheckpointMeta
		cell, tf, meta, err = ck.Restore(cfg, at, tracePath)
		if err != nil {
			fatal(err)
		}
		if kpiPath != "" {
			if kf, err = deploy.ResumeKPIFile(kpiPath, cfg.KPIEvery, meta.KPIOffset); err != nil {
				fatal(err)
			}
		}
		from = at
	} else {
		h := ran.Harness{
			Config: cfg,
			Window: dur,
			Drain:  drain,
		}
		var off func() int64
		if tracePath != "" {
			var err error
			if tf, err = deploy.OpenTraceFile(tracePath); err != nil {
				fatal(err)
			}
			h.Tracer = tf.Tracer()
			off = tf.Offset
		}
		var wf *os.File
		if traceOut != "" {
			var err error
			if wf, err = os.Create(traceOut); err != nil {
				fatal(err)
			}
			h.WorkloadTrace = wf
		}
		var err error
		if cell, err = h.Build(); err != nil {
			fatal(err)
		}
		// The full workload trace is on disk once Build returns, so a
		// later crash-resume never needs to re-emit it.
		if wf != nil {
			if err := wf.Close(); err != nil {
				fatal(fmt.Errorf("workload trace: %w", err))
			}
		}
		if err := ck.Attach(cell, off); err != nil {
			fatal(err)
		}
		if kpiPath != "" {
			if kf, err = deploy.OpenKPIFile(kpiPath, cfg.KPIEvery); err != nil {
				fatal(err)
			}
		}
	}
	if profileRun {
		cell.SetPhaseProfiler(obs.NewPhaseProfiler())
	}
	// Drive the cell through the sorted union of checkpoint and KPI
	// instants. At a shared instant KPI sampling precedes the checkpoint
	// write, so the recorded offset includes that instant's record and a
	// resumed run re-emits exactly the remaining suffix.
	ckAt := map[sim.Time]bool{}
	kpiAt := map[sim.Time]bool{}
	var times []sim.Time
	for _, t := range ckcfg.Times(total) {
		ckAt[t] = true
		times = append(times, t)
	}
	if cfg.KPIEvery > 0 {
		for t := cfg.KPIEvery; t <= total; t += cfg.KPIEvery {
			kpiAt[t] = true
			if !ckAt[t] {
				times = append(times, t)
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	}
	for _, t := range times {
		if t <= from {
			continue
		}
		cell.Run(t)
		if kpiAt[t] {
			sampleSingleKPI(cell, t, kf)
		}
		if ckAt[t] {
			kpiOff := int64(-1)
			if kf != nil {
				kpiOff = kf.Offset()
			}
			if err := ck.Write(0, 0, kpiOff); err != nil {
				fatal(err)
			}
		}
	}
	cell.Run(total)
	if kf != nil {
		if err := kf.Close(); err != nil {
			fatal(fmt.Errorf("kpi: %w", err))
		}
	}
	if tf != nil {
		if err := tf.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cell.Summary()); err != nil {
			fatal(err)
		}
	} else {
		printSummary(cell, cfg, load, wlDesc)
	}
}

// runDeployment runs the multi-cell deployment runtime.
func runDeployment(cfg ran.Config, load float64, dur sim.Time, cells, parallel int, handoverAt sim.Time, ckcfg deploy.CheckpointConfig, resume, exactFCT bool, traceOut, workloadTrace, tracePath, kpiPath string, jsonOut bool, wlDesc string) {
	dcfg := deploy.Config{
		Cells:      cells,
		Workers:    parallel,
		Cell:       cfg,
		Window:     dur,
		Drain:      drain,
		Seed:       cfg.Seed,
		ExactFCT:   exactFCT,
		Checkpoint: ckcfg,
		KPIPath:    kpiPath,
	}
	if traceOut != "" {
		dcfg.WorkloadTracePathFor = func(i int) string { return cellTracePath(traceOut, i) }
	}
	if workloadTrace != "" {
		// Each cell replays its own per-cell trace file, the ones a
		// -cells N -trace-out run wrote.
		dcfg.PerCell = func(i int, c ran.Config) ran.Config {
			return c.WithWorkload(workload.ReplaySpec(cellTracePath(workloadTrace, i)))
		}
	}
	if handoverAt > 0 {
		dcfg.Handovers = []deploy.Handover{{
			At: handoverAt, UE: 0, From: 0, To: 1, ContinueBytes: 256 << 10,
		}}
		if ckcfg.Enabled() {
			// A checkpoint cannot serialise the continuation's live
			// connection; transfer the §7 flow state only.
			dcfg.Handovers[0].ContinueBytes = 0
			fmt.Fprintln(os.Stderr, "note: -checkpoint-every disables the handover continuation flow (flow-state transfer still happens)")
		}
	}
	var tracers []*obs.Tracer
	if tracePath != "" && ckcfg.Enabled() {
		// Checkpointed runs need runtime-owned traces: crash recovery
		// truncates them back to the checkpoint offset.
		dcfg.TracePathFor = func(i int) string { return cellTracePath(tracePath, i) }
	} else if tracePath != "" {
		dcfg.TracerFor = func(i int) *obs.Tracer {
			f, err := os.Create(cellTracePath(tracePath, i))
			if err != nil {
				fatal(err)
			}
			t := obs.NewTracer(obs.NewJSONLSink(f))
			tracers = append(tracers, t)
			return t
		}
		// Tracer creation runs inside the build pool; serialize it.
		dcfg.Workers = 1
		if parallel != 0 && parallel != 1 {
			fmt.Fprintln(os.Stderr, "note: -trace forces -parallel 1 (per-cell traces stay deterministic either way)")
		}
	}
	run := deploy.Run
	if resume {
		run = deploy.Resume
	}
	res, err := run(dcfg)
	if err != nil {
		fatal(err)
	}
	for _, t := range tracers {
		if err := t.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	printDeployment(res, cfg, load, wlDesc)
}

// cellTracePath derives the per-cell trace filename: run.jsonl ->
// run.cell0.jsonl.
func cellTracePath(path string, cell int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.cell%d%s", strings.TrimSuffix(path, ext), cell, ext)
}

func printDeployment(res *deploy.Result, cfg ran.Config, load float64, distName string) {
	agg := res.Aggregate
	fmt.Printf("deployment     %d cells (sched %s, RLC %v, %d UEs/cell, %d RBs, load %.2f, dist %s, seed %d)\n",
		agg.Cells, cfg.Scheduler, cfg.RLC, cfg.NumUEs, cfg.Grid.NumRB, load, distName, agg.Seed)
	for _, c := range res.Cells {
		s := c.Summary
		fmt.Printf("  cell %-2d seed %-20d flows %4d/%-4d  FCT mean %8.1fms p95 %8.1fms  SE %.3f  fair %.3f\n",
			c.Cell, s.Seed, s.Counters.FlowsStarted, s.Counters.FlowsCompleted,
			s.FCTOverall.Mean.Milliseconds(), s.FCTOverall.P95.Milliseconds(),
			s.Counters.MeanSpectralEff, s.Counters.MeanFairnessIndex)
	}
	if agg.HandoversApplied > 0 {
		fmt.Printf("handovers      %d applied, %d flows transferred (%d B of §7 flow state)\n",
			agg.HandoversApplied, agg.FlowsTransferred, agg.FlowsTransferred*41)
	}
	fmt.Printf("flows          %d started, %d completed\n", agg.Counters.FlowsStarted, agg.Counters.FlowsCompleted)
	pr := func(label string, s metrics.Stats) {
		fmt.Printf("%-14s mean %8.1fms  p50 %8.1fms  p95 %8.1fms  p99 %8.1fms  (n=%d)\n",
			label, s.Mean.Milliseconds(), s.P50.Milliseconds(),
			s.P95.Milliseconds(), s.P99.Milliseconds(), s.Count)
	}
	pr("FCT overall", agg.FCTOverall)
	pr("FCT short", agg.FCTShort)
	pr("FCT medium", agg.FCTMedium)
	pr("FCT long", agg.FCTLong)
	fmt.Printf("spectral eff   %.3f bit/s/Hz (mean over cells)\n", agg.Counters.MeanSpectralEff)
	fmt.Printf("fairness       %.3f (Jain, eq. 3, mean over cells)\n", agg.Counters.MeanFairnessIndex)
}

func printSummary(cell *ran.Cell, cfg ran.Config, load float64, distName string) {
	st := cell.CollectStats()
	fmt.Printf("scheduler      %s (RLC %v, %d UEs, %d RBs, load %.2f, dist %s)\n",
		cell.Scheduler().Name(), cfg.RLC, cfg.NumUEs, cfg.Grid.NumRB, load, distName)
	fmt.Printf("flows          %d started, %d completed\n", st.FlowsStarted, st.FlowsCompleted)
	pr := func(label string, s metrics.Stats) {
		fmt.Printf("%-14s mean %8.1fms  p50 %8.1fms  p95 %8.1fms  p99 %8.1fms  (n=%d)\n",
			label, s.Mean.Milliseconds(), s.P50.Milliseconds(),
			s.P95.Milliseconds(), s.P99.Milliseconds(), s.Count)
	}
	pr("FCT overall", cell.FCT.Overall())
	pr("FCT short", cell.FCT.ByClass(metrics.Short))
	pr("FCT medium", cell.FCT.ByClass(metrics.Medium))
	pr("FCT long", cell.FCT.ByClass(metrics.Long))
	fmt.Printf("spectral eff   %.3f bit/s/Hz\n", st.MeanSpectralEff)
	fmt.Printf("fairness       %.3f (Jain, eq. 3)\n", st.MeanFairnessIndex)
	fmt.Printf("queue delay    %.2fms avg, %.2fms short flows\n",
		cell.Delay.Mean().Milliseconds(), cell.Delay.MeanShort().Milliseconds())
	fmt.Printf("mean SRTT      %.1fms\n", st.MeanSRTT.Milliseconds())
	fmt.Printf("losses         %d buffer drops, %d HARQ failures, %d reassembly discards, %d decipher failures\n",
		st.BufferDrops, st.HARQFailures, st.ReassemblyDrops, st.DecipherFailures)
	if phases := cell.PhaseProfiler().NsPerTTI(); len(phases) > 0 {
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Strings(names)
		var total float64
		for _, name := range names {
			total += phases[name]
		}
		fmt.Printf("phase profile  %.0f ns/TTI instrumented", total)
		for _, name := range names {
			fmt.Printf("  %s %.0f", name, phases[name])
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
