package experiments

import (
	"fmt"

	"outran/internal/phy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("fig17", Fig17)
	register("fig20", Fig20)
}

// Fig17 reproduces the 5G impact table: for each server placement
// (MEC 5 ms / remote 20 ms), numerology (0-3), and cell load (10%/60%),
// it reports the measured RTT, the average queueing delay, the
// short-flow queueing delay, and the short-flow 95th-percentile FCT
// for PF vs OutRAN.
func Fig17(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	dist := workload.Mirage()
	t := Table{
		Title: "Fig 17: impact of OutRAN in 5G RAN (PF vs OutRAN)",
		Header: []string{"server", "mu/slot_us", "load",
			"RTT_PF_ms", "RTT_OR_ms", "Qdelay_PF_ms", "Qdelay_OR_ms",
			"S_Qdelay_PF_ms", "S_Qdelay_OR_ms", "S_p95_PF_ms", "S_p95_OR_ms"},
	}
	servers := []struct {
		name  string
		delay sim.Time
	}{
		{"MEC(5ms)", 5 * sim.Millisecond},
		{"Remote(20ms)", 20 * sim.Millisecond},
	}
	for _, srv := range servers {
		for mu := phy.Mu0; mu <= phy.Mu3; mu++ {
			for _, load := range []float64{0.1, 0.6} {
				run := func(sched ran.SchedulerKind) (*runResult, error) {
					cfg := ran.Default5GConfig(mu)
					cfg.NumUEs = max(4, opt.UEs*2/3)
					cfg.Scheduler = sched
					cfg.Seed = opt.Seed // the probe below sizes the window on it; runCell reseeds the runs
					cfg.Path.WiredDelay = srv.delay
					cfg.Path.UplinkDelay = srv.delay + 4*sim.Millisecond
					// Scale RB count with the option's RB fraction to
					// keep runtimes bounded.
					cfg.Grid.NumRB = cfg.Grid.NumRB * opt.RBs / 100
					if cfg.Grid.NumRB < 10 {
						cfg.Grid.NumRB = 10
					}
					// 5G capacity is large; size the window by flow
					// count instead of wall time.
					probe, err := ran.NewCell(cfg)
					if err != nil {
						return nil, err
					}
					o := opt
					o.Duration = durationForFlows(300, load, probe.EffectiveCapacityBps(), dist.Mean())
					o.Drain = 8 * sim.Second
					return runCell(cfg, workload.PoissonSpec("mirage", load), o)
				}
				pf, err := run(ran.SchedPF)
				if err != nil {
					return nil, err
				}
				or, err := run(ran.SchedOutRAN)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []string{
					srv.name,
					fmt.Sprintf("%d/%d", int(mu), mu.SlotDuration()/sim.Microsecond),
					f2(load),
					ms(pf.Stats.MeanSRTT), ms(or.Stats.MeanSRTT),
					ms(pf.DelayMean), ms(or.DelayMean),
					ms(pf.DelayShort), ms(or.DelayShort),
					ms(shortP95(pf)), ms(shortP95(or)),
				})
			}
		}
	}
	return []Table{t}, nil
}

// Fig20 reproduces the 5G FCT-vs-load curves and the SE/fairness
// comparison under the MIRAGE mobile-app workload.
func Fig20(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	dist := workload.Mirage()
	scheds := []ran.SchedulerKind{ran.SchedPF, ran.SchedSRJF, ran.SchedOutRAN}
	loads := []float64{0.4, 0.5, 0.6, 0.7, 0.8}

	fct := Table{Title: "Fig 20(a): 5G overall average FCT (ms) vs cell load", Header: []string{"load"}}
	sys := Table{
		Title:  "Fig 20(b): 5G spectral efficiency and fairness",
		Header: []string{"scheduler", "load", "SE_bit/s/Hz", "fairness"},
	}
	for _, s := range scheds {
		fct.Header = append(fct.Header, string(s))
	}
	results := map[ran.SchedulerKind]map[float64]*runResult{}
	for _, s := range scheds {
		results[s] = map[float64]*runResult{}
		for _, load := range loads {
			cfg := ran.Default5GConfig(phy.Mu1)
			cfg.NumUEs = max(4, opt.UEs*2/3)
			cfg.Scheduler = s
			cfg.Seed = opt.Seed // the probe below sizes the window on it; runCell reseeds the runs
			cfg.Grid.NumRB = cfg.Grid.NumRB * opt.RBs / 100
			if cfg.Grid.NumRB < 10 {
				cfg.Grid.NumRB = 10
			}
			probe, err := ran.NewCell(cfg)
			if err != nil {
				return nil, err
			}
			o := opt
			o.Duration = durationForFlows(300, load, probe.EffectiveCapacityBps(), dist.Mean())
			o.Drain = 8 * sim.Second
			res, err := runCell(cfg, workload.PoissonSpec("mirage", load), o)
			if err != nil {
				return nil, err
			}
			results[s][load] = res
		}
	}
	for _, load := range loads {
		row := []string{f2(load)}
		for _, s := range scheds {
			row = append(row, ms(results[s][load].FCT.Overall().Mean))
		}
		fct.Rows = append(fct.Rows, row)
	}
	for _, s := range scheds {
		for _, load := range loads {
			r := results[s][load]
			sys.Rows = append(sys.Rows, []string{
				string(s), f2(load), f3(r.Stats.MeanSpectralEff), f3(r.Stats.MeanFairnessIndex),
			})
		}
	}
	return []Table{fct, sys}, nil
}
