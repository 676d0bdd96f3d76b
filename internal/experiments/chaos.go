package experiments

import (
	"fmt"
	"strings"

	"outran/internal/deploy"
	"outran/internal/fault"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("chaos", Chaos)
}

// The sweep: both schedulers x the fault-plan arrival rates (fault-free
// baseline, mild chaos, heavy chaos) x opt.Seeds.
var (
	chaosScheds      = []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN}
	chaosIntensities = []float64{0, 0.3, 0.7}
)

// chaosJob is the (scheduler, intensity, seed) of job i, numbered
// scheduler-major, then intensity, then seed.
func chaosJob(opt Options, i int) (ran.SchedulerKind, float64, uint64) {
	row := i / opt.Seeds
	return chaosScheds[row/len(chaosIntensities)], chaosIntensities[row%len(chaosIntensities)], opt.Seed + uint64(i%opt.Seeds)
}

// Chaos is the robustness experiment: PF vs OutRAN under randomized
// fault schedules of increasing intensity, AM RLC, with the runtime
// invariant monitor attached to every run. Reported per cell: mean
// FCT, completed flows, re-establishments, abandoned AM PDUs, and the
// monitor verdict — degradation should be graceful and invariants
// must hold at every intensity. The jobs run across opt.Workers and
// fold in job order, so the worker count changes wall time only.
func Chaos(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	opt.Seeds = max(opt.Seeds, 1)
	res := make([]fault.Result, len(chaosScheds)*len(chaosIntensities)*opt.Seeds)
	err := deploy.ForEach(len(res), opt.Workers, func(i int) error {
		sched, intensity, seed := chaosJob(opt, i)
		cfg := baseLTE(opt, sched)
		cfg.RLC = ran.AM
		var err error
		res[i], err = fault.RunConfig{
			Cell:     cfg.WithWorkload(workload.PoissonSpec("lte", 0.6)),
			Duration: opt.Duration, Drain: opt.Drain,
			Intensity: intensity, Seed: seed,
		}.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	t, err := chaosTable(opt, res)
	return []Table{t}, err
}

// chaosTable folds the sweep's results, numbered as chaosJob numbers
// them, into its table. A monitor violation is an error, returned with
// the table, that names each violating run and its first violations.
func chaosTable(opt Options, res []fault.Result) (Table, error) {
	t := Table{
		Title: "Chaos sweep: FCT degradation and invariants under fault injection (AM RLC)",
		Header: []string{"scheduler", "intensity", "mean FCT (ms)", "flows done",
			"RLFs", "AM abandoned", "invariants"},
	}
	var failed strings.Builder
	for first := 0; first < len(res); first += opt.Seeds {
		var fct sim.Time
		var flows int
		var rlfs, abandoned, violated uint64
		for i, r := range res[first : first+opt.Seeds] {
			fct += r.MeanFCT()
			flows += len(r.Samples)
			rlfs += r.Stats.Reestablishments
			abandoned += r.Stats.AMAbandoned
			violated += r.Monitor.Violated
			if !r.Monitor.Clean() {
				sched, intensity, seed := chaosJob(opt, first+i)
				fmt.Fprintf(&failed, "\n  %s intensity %s seed %d: %d violation(s)", sched, f2(intensity), seed, r.Monitor.Violated)
				for _, v := range r.Monitor.Violations[:min(3, len(r.Monitor.Violations))] {
					fmt.Fprintf(&failed, "\n    %v", v)
				}
			}
		}
		verdict := "clean"
		if violated > 0 {
			verdict = fmt.Sprintf("%d VIOLATED", violated)
		}
		sched, intensity, _ := chaosJob(opt, first)
		t.Rows = append(t.Rows, []string{
			string(sched), f2(intensity), ms(fct / sim.Time(opt.Seeds)),
			fmt.Sprint(flows), fmt.Sprint(rlfs), fmt.Sprint(abandoned), verdict,
		})
	}
	if failed.Len() > 0 {
		return t, fmt.Errorf("invariant violations:%s", failed.String())
	}
	return t, nil
}
