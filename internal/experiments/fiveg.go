package experiments

import (
	"fmt"

	"outran/internal/metrics"
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
	t := Table{
		Title: "Fig 17: impact of OutRAN in 5G RAN (PF vs OutRAN)",
		Header: []string{"server", "mu/slot_us", "load",
			"RTT_PF_ms", "RTT_OR_ms", "Qdelay_PF_ms", "Qdelay_OR_ms",
			"S_Qdelay_PF_ms", "S_Qdelay_OR_ms", "S_p95_PF_ms", "S_p95_OR_ms", "S_n_PF", "S_n_OR"},
	}
	servers := []struct {
		name  string
		delay sim.Time
	}{
		{"MEC(5ms)", 5 * sim.Millisecond},
		{"Remote(20ms)", 20 * sim.Millisecond},
	}
	// One row per (server, numerology, load): its PF and OutRAN points.
	var rows [][]string
	var pts []point
	for _, srv := range servers {
		for mu := phy.Mu0; mu <= phy.Mu3; mu++ {
			for _, load := range []float64{0.1, 0.6} {
				rows = append(rows, []string{srv.name, fmt.Sprintf("%d/%d", int(mu), mu.SlotDuration()/sim.Microsecond), f2(load)})
				for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
					cfg := ran.Default5GConfig(mu)
					cfg.Scheduler = sched
					cfg.Path.WiredDelay = srv.delay
					cfg.Path.UplinkDelay = srv.delay + 4*sim.Millisecond
					pts = append(pts, fiveGPoint(opt, cfg, load))
				}
			}
		}
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		pf, or := res[2*i], res[2*i+1]
		pfS, orS := pf.FCT.ByClass(metrics.Short), or.FCT.ByClass(metrics.Short)
		t.Rows = append(t.Rows, append(row,
			ms(pf.Stats.MeanSRTT), ms(or.Stats.MeanSRTT),
			ms(pf.DelayMean), ms(or.DelayMean),
			ms(pf.DelayShort), ms(or.DelayShort),
			ms(pfS.P95), ms(orS.P95), sample(pfS), sample(orS),
		))
	}
	return []Table{t}, nil
}

// fiveGPoint completes a 5G point: a UE count and RB width scaled from
// the options (the RBs as a fraction of 100, to keep runtimes bounded),
// the MIRAGE workload at the load, and a shorter drain.
func fiveGPoint(opt Options, cfg ran.Config, load float64) point {
	cfg.NumUEs = max(4, opt.UEs*2/3)
	cfg.Grid.NumRB = max(10, cfg.Grid.NumRB*opt.RBs/100)
	opt.Drain = 8 * sim.Second
	return point{cfg, workload.PoissonSpec("mirage", load), opt}
}

// Fig20 reproduces the 5G FCT-vs-load curves and the SE/fairness
// comparison under the MIRAGE mobile-app workload.
func Fig20(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
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
	for _, s := range scheds {
		fct.Header = append(fct.Header, "n_"+string(s))
	}
	var pts []point
	for _, s := range scheds {
		for _, load := range loads {
			cfg := ran.Default5GConfig(phy.Mu1)
			cfg.Scheduler = s
			pts = append(pts, fiveGPoint(opt, cfg, load))
		}
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	for j, load := range loads {
		row := []string{f2(load)}
		var counts []string
		for i := range scheds {
			all := res[i*len(loads)+j].FCT.Overall()
			row = append(row, ms(all.Mean))
			counts = append(counts, sample(all))
		}
		fct.Rows = append(fct.Rows, append(row, counts...))
	}
	for i, s := range scheds {
		for j, load := range loads {
			r := res[i*len(loads)+j]
			sys.Rows = append(sys.Rows, []string{
				string(s), f2(load), f3(r.Stats.MeanSpectralEff), f3(r.Stats.MeanFairnessIndex),
			})
		}
	}
	return []Table{fct, sys}, nil
}
