// Command outran-sim runs a downlink simulation with the chosen
// scheduler and prints the FCT / spectral-efficiency / fairness
// summary — the quickest way to poke at the system. It maps its flags
// onto one deploy.Config and hands it to deploy.Run (or deploy.Resume):
// a single cell is a one-cell deployment, -cells N runs N of them
// across a bounded worker pool (-parallel), optionally with a scripted
// §7 inter-cell handover.
//
// Example:
//
//	outran-sim -sched OutRAN -load 0.6 -ues 20 -rbs 50 -dur 8s
//	outran-sim -sched PF -load 0.8 -dist websearch -numerology 1
//	outran-sim -sched OutRAN -trace run.jsonl -json > summary.json
//	outran-sim -cells 4 -parallel 4 -json
//	outran-sim -cells 2 -handover 3s
//	outran-sim -workload diurnal -trace-out w.jsonl
//	outran-sim -workload-trace w.jsonl   # byte-identical replay
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"outran/internal/cli"
	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/pdcp"
	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// drain is the post-arrival run time that lets in-flight flows finish.
const drain = 12 * sim.Second

func main() { cli.Main(run) }

// options is one parsed command line: the deployment to run and how to
// report it.
type options struct {
	deploy  deploy.Config
	resume  bool
	jsonOut bool
	// load and wlDesc only label the text summary.
	load   float64
	wlDesc string

	cpuProfile, memProfile string
}

// run is the whole program: flags -> deploy.Config -> deploy.Run or
// deploy.Resume -> print. A single cell is a one-cell deployment.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var res *deploy.Result
	if o.resume {
		res, err = deploy.Resume(o.deploy)
	} else {
		res, err = deploy.Run(o.deploy)
	}
	if err != nil {
		return err
	}
	single := o.deploy.Cells == 1
	switch {
	case o.jsonOut && single:
		err = writeJSON(stdout, res.Cells[0].Summary)
	case o.jsonOut:
		err = writeJSON(stdout, res)
	case single:
		printSummary(stdout, res.Live[0], o)
	default:
		printDeployment(stdout, res, o)
	}
	if err != nil {
		return err
	}

	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// parseFlags maps the command line onto one deploy.Config. Notes about
// flag interactions go to stderr.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("outran-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sched := fs.String("sched", "OutRAN", "scheduler: PF MT RR SRJF PSS CQA OutRAN StrictMLFQ")
	load := fs.Float64("load", 0.6, "offered cell load (fraction of capacity)")
	ues := fs.Int("ues", 20, "number of UEs per cell")
	rbs := fs.Int("rbs", 50, "resource blocks")
	durFlag := fs.Duration("dur", 0, "arrival window (default 8s)")
	distName := fs.String("dist", "lte", "flow size distribution: lte | mirage | websearch")
	workloadName := fs.String("workload", "", "workload scenario: "+strings.Join(workload.ScenarioNames(), " | ")+" (default: steady poisson from -dist/-load)")
	traceOut := fs.String("trace-out", "", "record the generated workload to this JSONL trace (per cell with -cells: name.cellN.ext); replay with -workload-trace")
	workloadTrace := fs.String("workload-trace", "", "replay a workload trace recorded with -trace-out instead of generating arrivals (per cell with -cells)")
	eps := fs.Float64("eps", 0.2, "OutRAN relaxation threshold")
	mu := fs.Int("numerology", 0, "5G numerology 0-3 (0 = LTE grid)")
	am := fs.Bool("am", false, "use RLC AM instead of UM")
	seed := fs.Uint64("seed", 1, "simulation seed (multi-cell: deployment master seed)")
	cells := fs.Int("cells", 1, "number of cells (multi-cell deployment runtime)")
	parallel := fs.Int("parallel", 0, "max cells executing concurrently (0 = GOMAXPROCS); never changes results")
	handover := fs.Duration("handover", 0, "with -cells >= 2: migrate UE 0 from cell 0 to cell 1 at this sim time (§7 flow-state transfer)")
	ckEvery := fs.Duration("checkpoint-every", 0, "checkpoint every cell's full state at this sim-time cadence (0 = off)")
	ckDir := fs.String("checkpoint-dir", "outran-ckpt", "checkpoint directory (with -checkpoint-every / -resume)")
	resume := fs.Bool("resume", false, "resume a killed checkpointed run from -checkpoint-dir (pass the SAME flags as the original run)")
	tracePath := fs.String("trace", "", "write a JSONL event trace to this file (per cell with -cells: name.cellN.ext)")
	kpiEvery := fs.Duration("kpi-every", 0, "sample per-cell KPI records at this sim-time cadence (0 = off)")
	kpiPath := fs.String("kpi", "", "write the KPI time-series JSONL to this file (needs -kpi-every; read with outran-trace kpi or outran-trace top)")
	profileRun := fs.Bool("profile", false, "attribute wall ns/TTI to phy/mac/rlc/pdcp/obs phases (single cell; shown in the summary, never in byte-compared outputs)")
	streamFCT := fs.Bool("stream-fct", false, "record FCTs into bounded-memory streaming histograms instead of retaining per-flow samples (always on with -cells > 1)")
	jsonOut := fs.Bool("json", false, "print the run summary as JSON instead of text")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return options{}, err
		}
		return options{}, fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}
	// A negative size or instant would be silently replaced or ignored,
	// and so would a cell of no UEs.
	for _, name := range []string{"ues", "rbs", "dur", "numerology", "cells", "parallel", "handover", "kpi-every", "checkpoint-every"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return options{}, fmt.Errorf("%w: -%s %s is negative", cli.ErrUsage, name, v)
		}
	}
	if *ues == 0 {
		return options{}, fmt.Errorf("%w: -ues 0: a cell needs at least one UE", cli.ErrUsage)
	}

	if _, ok := workload.ByName(*distName); !ok {
		return options{}, fmt.Errorf("%w: unknown distribution %q", cli.ErrUsage, *distName)
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
			return options{}, fmt.Errorf("-workload-trace and -workload are mutually exclusive (the trace fixes the workload)")
		}
		spec = workload.ReplaySpec(*workloadTrace)
		wlDesc = "trace:" + filepath.Base(*workloadTrace)
	case *workloadName != "":
		var ok bool
		spec, ok = workload.Scenario(*workloadName, *distName, *load)
		if !ok {
			return options{}, fmt.Errorf("unknown workload scenario %q (have: %s)", *workloadName, strings.Join(workload.ScenarioNames(), " "))
		}
		wlDesc = *workloadName + "/" + *distName
	default:
		spec = workload.PoissonSpec(*distName, *load)
		wlDesc = "poisson/" + *distName
	}
	cfg = cfg.WithWorkload(spec).WithDefaults()
	if err := cfg.Validate(); err != nil {
		return options{}, err
	}
	single := *cells <= 1
	switch {
	case *kpiPath != "" && *kpiEvery <= 0:
		return options{}, fmt.Errorf("-kpi needs -kpi-every > 0")
	case *profileRun && !single:
		return options{}, fmt.Errorf("-profile needs -cells 1 (phase timings are per-cell wall clock)")
	case *handover > 0 && single:
		return options{}, fmt.Errorf("-handover needs -cells >= 2")
	}

	dcfg := deploy.Config{
		Cells:             max(*cells, 1),
		Workers:           *parallel,
		Cell:              cfg,
		Window:            sim.Time(*durFlag),
		Drain:             drain,
		Seed:              *seed,
		Checkpoint:        deploy.CheckpointConfig{Every: sim.Time(*ckEvery)},
		KPIPath:           *kpiPath,
		Profile:           *profileRun,
		TracePath:         *tracePath,
		WorkloadTracePath: *traceOut,
	}
	if dcfg.Window <= 0 {
		dcfg.Window = 8 * sim.Second
	}
	if *ckEvery > 0 || *resume {
		dcfg.Checkpoint.Dir = *ckDir
	}
	if *handover > 0 {
		dcfg.Handovers = []deploy.Handover{{
			At: sim.Time(*handover), UE: 0, From: 0, To: 1, ContinueBytes: 256 << 10,
		}}
		if dcfg.Checkpoint.Enabled() {
			// A checkpoint cannot serialise the continuation's live
			// connection; transfer the §7 flow state only.
			dcfg.Handovers[0].ContinueBytes = 0
			fmt.Fprintln(stderr, "note: -checkpoint-every disables the handover continuation flow (flow-state transfer still happens)")
		}
	}
	return options{
		deploy:     dcfg,
		resume:     *resume,
		jsonOut:    *jsonOut,
		load:       *load,
		wlDesc:     wlDesc,
		cpuProfile: *cpuProfile,
		memProfile: *memProfile,
	}, nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printDeployment(w io.Writer, res *deploy.Result, o options) {
	agg, cfg := res.Aggregate, o.deploy.Cell
	fmt.Fprintf(w, "deployment     %d cells (sched %s, RLC %v, %d UEs/cell, %d RBs, load %.2f, dist %s, seed %d)\n",
		agg.Cells, cfg.Scheduler, cfg.RLC, cfg.NumUEs, cfg.Grid.NumRB, o.load, o.wlDesc, agg.Seed)
	for _, c := range res.Cells {
		s := c.Summary
		fmt.Fprintf(w, "  cell %-2d seed %-20d flows %4d/%-4d  FCT mean %8.1fms p95 %8.1fms  SE %.3f  fair %.3f\n",
			c.Cell, s.Seed, s.Counters.FlowsStarted, s.Counters.FlowsCompleted,
			s.FCTOverall.Mean.Milliseconds(), s.FCTOverall.P95.Milliseconds(),
			s.Counters.MeanSpectralEff, s.Counters.MeanFairnessIndex)
	}
	if agg.HandoversApplied > 0 {
		fmt.Fprintf(w, "handovers      %d applied, %d flows transferred (%d B of §7 flow state)\n",
			agg.HandoversApplied, agg.FlowsTransferred, agg.FlowsTransferred*pdcp.FlowRecordLen)
	}
	fmt.Fprintf(w, "flows          %d started, %d completed\n", agg.Counters.FlowsStarted, agg.Counters.FlowsCompleted)
	printFCT(w, "FCT overall", agg.FCTOverall)
	printFCT(w, "FCT short", agg.FCTShort)
	printFCT(w, "FCT medium", agg.FCTMedium)
	printFCT(w, "FCT long", agg.FCTLong)
	fmt.Fprintf(w, "spectral eff   %.3f bit/s/Hz (mean over cells)\n", agg.Counters.MeanSpectralEff)
	fmt.Fprintf(w, "fairness       %.3f (Jain, eq. 3, mean over cells)\n", agg.Counters.MeanFairnessIndex)
}

func printSummary(w io.Writer, cell *ran.Cell, o options) {
	st, cfg := cell.CollectStats(), o.deploy.Cell
	fmt.Fprintf(w, "scheduler      %s (RLC %v, %d UEs, %d RBs, load %.2f, dist %s)\n",
		cell.Scheduler().Name(), cfg.RLC, cfg.NumUEs, cfg.Grid.NumRB, o.load, o.wlDesc)
	fmt.Fprintf(w, "flows          %d started, %d completed\n", st.FlowsStarted, st.FlowsCompleted)
	printFCT(w, "FCT overall", cell.FCT.Overall())
	printFCT(w, "FCT short", cell.FCT.ByClass(metrics.Short))
	printFCT(w, "FCT medium", cell.FCT.ByClass(metrics.Medium))
	printFCT(w, "FCT long", cell.FCT.ByClass(metrics.Long))
	fmt.Fprintf(w, "spectral eff   %.3f bit/s/Hz\n", st.MeanSpectralEff)
	fmt.Fprintf(w, "fairness       %.3f (Jain, eq. 3)\n", st.MeanFairnessIndex)
	fmt.Fprintf(w, "queue delay    %.2fms avg, %.2fms short flows\n",
		cell.Delay.Mean().Milliseconds(), cell.Delay.MeanShort().Milliseconds())
	fmt.Fprintf(w, "mean SRTT      %.1fms\n", st.MeanSRTT.Milliseconds())
	fmt.Fprintf(w, "losses         %d buffer drops, %d HARQ failures, %d reassembly discards, %d RLC PDUs skipped, %d decipher failures\n",
		st.BufferDrops, st.HARQFailures, st.ReassemblyDrops, st.SkippedPDUs, st.DecipherFailures)
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
		fmt.Fprintf(w, "phase profile  %.0f ns/TTI instrumented", total)
		for _, name := range names {
			fmt.Fprintf(w, "  %s %.0f", name, phases[name])
		}
		fmt.Fprintln(w)
	}
}

// printFCT prints one FCT distribution row of the text summary.
func printFCT(w io.Writer, label string, s metrics.Stats) {
	fmt.Fprintf(w, "%-14s mean %8.1fms  p50 %8.1fms  p95 %8.1fms  p99 %8.1fms  (n=%d)\n",
		label, s.Mean.Milliseconds(), s.P50.Milliseconds(),
		s.P95.Milliseconds(), s.P99.Milliseconds(), s.Count)
}
