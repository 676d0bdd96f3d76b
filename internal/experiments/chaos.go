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
// fault schedules of increasing intensity, AM RLC, with the cell's
// runtime invariant checker installed on every run. Reported per cell:
// mean FCT, completed flows, re-establishments, abandoned AM PDUs, and
// the checker's verdict — degradation should be graceful and
// invariants must hold at every intensity. The jobs run across
// opt.Workers and fold in job order, so the worker count changes wall
// time only.
func Chaos(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	opt.Seeds = max(opt.Seeds, 1)
	run, err := chaosRunner(opt)
	if err != nil {
		return nil, err
	}
	res := make([]fault.Result, len(chaosScheds)*len(chaosIntensities)*opt.Seeds)
	err = deploy.ForEach(len(res), opt.Workers, func(i int) (err error) {
		res[i], err = run(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	t, err := chaosTable(opt, res)
	return []Table{t}, err
}

// chaosRunner sizes the sweep's arrival window for the defaulted opt
// and returns the body of its job i: one AM cell of the job's
// scheduler under the fault plan of the job's intensity and seed.
func chaosRunner(opt Options) (func(i int) (fault.Result, error), error) {
	spec := workload.PoissonSpec("lte", 0.6)
	win, err := window(baseLTE(opt, chaosScheds[0]), spec, share(opt.Flows, opt.Seeds))
	if err != nil {
		return nil, err
	}
	return func(i int) (fault.Result, error) {
		sched, intensity, seed := chaosJob(opt, i)
		cfg := baseLTE(opt, sched)
		cfg.RLC = ran.AM
		return fault.RunConfig{
			Cell:     cfg.WithWorkload(spec),
			Duration: win, Drain: opt.Drain,
			Intensity: intensity, Seed: seed,
		}.Run()
	}, nil
}

// chaosTable folds the sweep's results, numbered as chaosJob numbers
// them, into its table. A violation, or a run whose checker swept no
// TTI or saw no delivery (an empty verdict, not a clean one), is an
// error, returned with the table, that names each such run and its
// first violations.
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
		var rlfs, abandoned, violated, unchecked uint64
		for i, r := range res[first : first+opt.Seeds] {
			fct += r.MeanFCT()
			flows += len(r.Samples)
			rlfs += r.Stats.Reestablishments
			abandoned += r.Stats.AMAbandoned
			rep := r.Invariants
			violated += rep.Violated
			sched, intensity, seed := chaosJob(opt, first+i)
			switch {
			case !rep.Clean():
				fmt.Fprintf(&failed, "\n  %s intensity %s seed %d: %d violation(s)", sched, f2(intensity), seed, rep.Violated)
				for _, v := range rep.Violations[:min(3, len(rep.Violations))] {
					fmt.Fprintf(&failed, "\n    %v", v)
				}
			case rep.Checks == 0 || rep.Deliveries == 0:
				unchecked++
				fmt.Fprintf(&failed, "\n  %s intensity %s seed %d: empty verdict (%d TTI checks, %d deliveries)", sched, f2(intensity), seed, rep.Checks, rep.Deliveries)
			}
		}
		verdict := "clean"
		switch {
		case violated > 0:
			verdict = fmt.Sprintf("%d VIOLATED", violated)
		case unchecked > 0:
			verdict = fmt.Sprintf("%d UNCHECKED", unchecked)
		}
		sched, intensity, _ := chaosJob(opt, first)
		t.Rows = append(t.Rows, []string{
			string(sched), f2(intensity), ms(fct / sim.Time(opt.Seeds)),
			fmt.Sprint(flows), fmt.Sprint(rlfs), fmt.Sprint(abandoned), verdict,
		})
	}
	if failed.Len() > 0 {
		return t, fmt.Errorf("invariants not shown to hold:%s", failed.String())
	}
	return t, nil
}
