// Command outran-chaos sweeps randomized fault schedules across seeds
// and schedulers with the runtime invariant monitor attached: a
// robustness gate for the whole simulator, and a measure of how
// gracefully PF and OutRAN degrade under RAN faults.
//
// Usage:
//
//	outran-chaos [-seeds 20] [-seed 1] [-ues 10] [-rbs 25] [-dur 2s]
//	             [-load 0.6] [-intensity 1] [-um] [-parallel 0] [-v] [-json]
//
// For every scheduler (PF, OutRAN) and seed, the tool runs the same
// workload twice — a fault-free baseline and a chaos run under a
// seed-derived fault plan — and reports the FCT degradation alongside
// the fault activity (RLFs, abandoned AM PDUs, injected losses). Any
// invariant violation is printed and makes the exit status 1.
//
// The (scheduler, seed) jobs execute across a bounded worker pool
// (-parallel, default GOMAXPROCS); every run is an independent
// single-threaded simulation and all reporting folds in job order, so
// the worker count changes wall-clock time only.
//
// With -json, one machine-readable record per run (scheduler, seed,
// phase, FCT stats, and the shared counter schema from ran.Stats) is
// written to stdout as JSONL; human-readable output and violations go
// to stderr.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"outran/internal/deploy"
	"outran/internal/fault"
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// chaosRecord is the -json output schema for one monitored run: the
// consolidated ran.Stats counter schema (metrics.RunCounters) plus the
// FCT distribution, one JSON object per line.
type chaosRecord struct {
	Scheduler string        `json:"scheduler"`
	Seed      uint64        `json:"seed"`
	Phase     string        `json:"phase"` // "baseline" or "chaos"
	Flows     int           `json:"flows"`
	FCT       metrics.Stats `json:"fct"`
	Counters  ran.Stats     `json:"counters"`
	Faults    int           `json:"fault_events"`
}

func record(sched ran.SchedulerKind, seed uint64, phase string, res fault.Result) chaosRecord {
	fcts := make([]sim.Time, 0, len(res.Samples))
	for _, s := range res.Samples {
		fcts = append(fcts, s.FCT)
	}
	return chaosRecord{
		Scheduler: string(sched),
		Seed:      seed,
		Phase:     phase,
		Flows:     len(res.Samples),
		FCT:       metrics.ComputeStats(fcts),
		Counters:  res.Stats,
		Faults:    len(res.Plan),
	}
}

// job is one (scheduler, seed) sweep point; base and chaos are filled
// in by the worker pool, everything else is fixed up front.
type job struct {
	sched       ran.SchedulerKind
	seed        uint64
	base, chaos fault.Result
	err         error
}

// errUsage marks a command line that could not be understood (exit
// status 2, like the flag package's own failures).
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run is the whole program: flags -> the (scheduler, seed) sweep ->
// report. Any invariant violation comes back as an error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("outran-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 20, "number of seeds per scheduler")
	seed := fs.Uint64("seed", 1, "first seed")
	ues := fs.Int("ues", 10, "UE count")
	rbs := fs.Int("rbs", 25, "resource blocks")
	dur := fs.Duration("dur", 2*time.Second, "workload arrival window")
	load := fs.Float64("load", 0.6, "offered load vs. effective capacity")
	intensity := fs.Float64("intensity", 1, "fault plan intensity (arrival-rate scale)")
	scenario := fs.String("scenario", "", "workload scenario: "+strings.Join(workload.ScenarioNames(), " | ")+" (default: steady poisson at -load)")
	um := fs.Bool("um", false, "RLC UM instead of AM")
	parallel := fs.Int("parallel", 0, "max runs executing concurrently (0 = GOMAXPROCS); never changes results")
	verbose := fs.Bool("v", false, "per-seed detail")
	jsonOut := fs.Bool("json", false, "emit one JSON record per run (stdout) instead of the text report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	mode := ran.AM
	if *um {
		mode = ran.UM
	}
	var spec workload.Spec
	if *scenario != "" {
		var ok bool
		if spec, ok = workload.Scenario(*scenario, "lte", *load); !ok {
			return fmt.Errorf("%w: unknown workload scenario %q (have: %s)",
				errUsage, *scenario, strings.Join(workload.ScenarioNames(), " "))
		}
	}
	if !*jsonOut {
		wl := "poisson"
		if *scenario != "" {
			wl = *scenario
		}
		fmt.Fprintf(stdout, "chaos sweep: %d seeds x {PF, OutRAN}, %d UEs, %d RBs, %v window, load %.2f, workload %s, intensity %.2f, RLC %v\n\n",
			*seeds, *ues, *rbs, *dur, *load, wl, *intensity, mode)
	}

	// Lay the jobs out in report order, run them across the pool into
	// their own slots, then fold serially in that same order: the
	// worker count cannot change any output byte.
	scheds := []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN}
	ns := *seeds
	jobs := make([]job, 0, len(scheds)*ns)
	for _, sched := range scheds {
		for i := 0; i < ns; i++ {
			jobs = append(jobs, job{sched: sched, seed: *seed + uint64(i)})
		}
	}
	// Per-job errors land in the job slots and are reported seed by
	// seed below; the pool-level error would duplicate them.
	_ = deploy.ForEach(len(jobs), *parallel, func(i int) error {
		j := &jobs[i]
		j.base, j.err = runOne(j.sched, mode, spec, *ues, *rbs, sim.Time(*dur), *load, 0, j.seed)
		if j.err == nil {
			j.chaos, j.err = runOne(j.sched, mode, spec, *ues, *rbs, sim.Time(*dur), *load, *intensity, j.seed)
		}
		return j.err
	})

	// Violations go next to the text report, or to stderr when stdout
	// carries JSON and must stay parseable.
	violOut := stdout
	if *jsonOut {
		violOut = stderr
	}
	violations := 0
	enc := json.NewEncoder(stdout)
	for s, sched := range scheds {
		var agg aggregate
		for _, j := range jobs[s*ns : (s+1)*ns] {
			if j.err != nil {
				return fmt.Errorf("%s seed %d: %w", j.sched, j.seed, j.err)
			}
			agg.add(j.base, j.chaos)
			violations += reportViolations(violOut, j.sched, j.seed, "baseline", j.base.Monitor)
			violations += reportViolations(violOut, j.sched, j.seed, "chaos", j.chaos.Monitor)
			if *jsonOut {
				if err := enc.Encode(record(j.sched, j.seed, "baseline", j.base)); err != nil {
					return err
				}
				if err := enc.Encode(record(j.sched, j.seed, "chaos", j.chaos)); err != nil {
					return err
				}
			} else if *verbose {
				fmt.Fprintf(stdout, "  %-6s seed %-3d baseline FCT %-12v chaos FCT %-12v rlf=%d abandoned=%d events=%d\n",
					j.sched, j.seed, j.base.MeanFCT(), j.chaos.MeanFCT(),
					j.chaos.Stats.Reestablishments, j.chaos.Stats.AMAbandoned, len(j.chaos.Plan))
			}
		}
		if !*jsonOut {
			agg.print(stdout, string(sched), *seeds)
		}
	}

	if violations > 0 {
		return fmt.Errorf("FAIL: %d invariant violation(s)", violations)
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, "\nall invariants held")
	}
	return nil
}

func runOne(sched ran.SchedulerKind, mode ran.RLCMode, spec workload.Spec, ues, rbs int, dur sim.Time, load, intensity float64, seed uint64) (fault.Result, error) {
	cfg := ran.DefaultLTEConfig().
		WithTopology(ues, rbs).
		ForScheduler(sched)
	cfg.RLC = mode
	return fault.Run(fault.RunConfig{
		Cell:      cfg,
		Workload:  spec,
		Load:      load,
		Duration:  dur,
		Intensity: intensity,
		Seed:      seed,
	})
}

func reportViolations(out io.Writer, sched ran.SchedulerKind, seed uint64, phase string, rep fault.Report) int {
	if rep.Clean() {
		return 0
	}
	fmt.Fprintf(out, "  %s seed %d (%s): %d VIOLATION(S)\n", sched, seed, phase, rep.Violated)
	for _, v := range rep.Violations {
		fmt.Fprintf(out, "    %v\n", v)
	}
	return int(rep.Violated)
}

// aggregate accumulates the sweep's per-seed results.
type aggregate struct {
	baseFCT, chaosFCT     sim.Time
	baseFlows, chaosFlows int
	rlfs, abandoned       uint64
	cqiDrops, harqFlips   uint64
	pduDrops, bhDrops     uint64
	checks, deliveries    uint64
}

func (a *aggregate) add(base, chaos fault.Result) {
	a.baseFCT += base.MeanFCT()
	a.chaosFCT += chaos.MeanFCT()
	a.baseFlows += len(base.Samples)
	a.chaosFlows += len(chaos.Samples)
	a.rlfs += chaos.Stats.Reestablishments
	a.abandoned += chaos.Stats.AMAbandoned
	a.cqiDrops += chaos.Injector.CQIDropped
	a.harqFlips += chaos.Injector.HARQFlipped
	a.pduDrops += chaos.Injector.PDUsDropped
	a.bhDrops += chaos.Injector.BackhaulDropped
	a.checks += base.Monitor.Checks + chaos.Monitor.Checks
	a.deliveries += base.Monitor.Deliveries + chaos.Monitor.Deliveries
}

func (a *aggregate) print(w io.Writer, name string, seeds int) {
	n := sim.Time(seeds)
	baseline, chaos := a.baseFCT/n, a.chaosFCT/n
	degr := 0.0
	if baseline > 0 {
		degr = 100 * (float64(chaos)/float64(baseline) - 1)
	}
	fmt.Fprintf(w, "%-7s mean FCT %v -> %v (%+.1f%%), flows %d -> %d\n",
		name, baseline, chaos, degr, a.baseFlows, a.chaosFlows)
	fmt.Fprintf(w, "        faults: rlf=%d amAbandoned=%d cqiDrops=%d harqFlips=%d pduDrops=%d backhaulDrops=%d\n",
		a.rlfs, a.abandoned, a.cqiDrops, a.harqFlips, a.pduDrops, a.bhDrops)
	fmt.Fprintf(w, "        monitor: %d TTI checks, %d deliveries observed\n\n", a.checks, a.deliveries)
}
