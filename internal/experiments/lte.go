package experiments

import (
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("fig15", Fig15)
	register("fig16", Fig16)
}

// lteSchedulers is the scheduler lineup of the main LTE evaluation.
var lteSchedulers = []ran.SchedulerKind{
	ran.SchedPF, ran.SchedSRJF, ran.SchedPSS, ran.SchedCQA, ran.SchedOutRAN,
}

// lteLoads is the cell-load sweep of §6.2.
var lteLoads = []float64{0.4, 0.5, 0.6, 0.7, 0.8}

// lteSweepCache memoises the scheduler x load grid shared by fig15 and
// fig16 (both figures come from the same runs in the paper too).
var lteSweepCache = map[Options][]*runResult{}

// lteSweep runs (or recalls) the full scheduler x load grid, point
// (scheduler i, load j) at index i*len(lteLoads)+j.
func lteSweep(opt Options) ([]*runResult, error) {
	if got, ok := lteSweepCache[opt]; ok {
		return got, nil
	}
	var pts []point
	for _, sched := range lteSchedulers {
		for _, load := range lteLoads {
			pts = append(pts, point{baseLTE(opt, sched), workload.PoissonSpec("lte", load), opt})
		}
	}
	res, err := runPoints(opt, pts)
	if err != nil {
		return nil, err
	}
	lteSweepCache[opt] = res
	return res, nil
}

// Fig15 reproduces the LTE FCT-vs-load curves: overall average, short
// 95th percentile, medium average, long average for PF / SRJF / PSS /
// CQA / OutRAN.
func Fig15(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	sweep, err := lteSweep(opt)
	if err != nil {
		return nil, err
	}
	// mk tabulates one statistic of one flow class per scheduler and
	// load, then the flow count behind each.
	mk := func(title string, class func(*metrics.FCTRecorder) metrics.Stats, stat func(metrics.Stats) sim.Time) Table {
		t := Table{Title: title, Header: []string{"load"}}
		for _, s := range lteSchedulers {
			t.Header = append(t.Header, string(s))
		}
		for _, s := range lteSchedulers {
			t.Header = append(t.Header, "n_"+string(s))
		}
		for j, load := range lteLoads {
			row := []string{f2(load)}
			var counts []string
			for i := range lteSchedulers {
				st := class(sweep[i*len(lteLoads)+j].FCT)
				row = append(row, ms(stat(st)))
				counts = append(counts, sample(st))
			}
			t.Rows = append(t.Rows, append(row, counts...))
		}
		return t
	}
	byClass := func(c metrics.SizeClass) func(*metrics.FCTRecorder) metrics.Stats {
		return func(r *metrics.FCTRecorder) metrics.Stats { return r.ByClass(c) }
	}
	mean := func(s metrics.Stats) sim.Time { return s.Mean }
	return []Table{
		mk("Fig 15(a): overall average FCT (ms) vs cell load", (*metrics.FCTRecorder).Overall, mean),
		mk("Fig 15(b): short (0,10KB] 95%-ile FCT (ms) vs cell load", byClass(metrics.Short),
			func(s metrics.Stats) sim.Time { return s.P95 }),
		mk("Fig 15(c): medium (10KB,0.1MB] average FCT (ms) vs cell load", byClass(metrics.Medium), mean),
		mk("Fig 15(d): long (0.1MB,inf) average FCT (ms) vs cell load", byClass(metrics.Long), mean),
	}, nil
}

// Fig16 reproduces the overall spectral-efficiency vs fairness scatter
// across loads for the same scheduler lineup.
func Fig16(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	sweep, err := lteSweep(opt)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "Fig 16: spectral efficiency vs fairness across cell loads",
		Header: []string{"scheduler", "load", "SE_bit/s/Hz", "SE_active", "fairness"},
	}
	for i, s := range lteSchedulers {
		for j, load := range lteLoads {
			r := sweep[i*len(lteLoads)+j]
			t.Rows = append(t.Rows, []string{
				string(s), f2(load), f3(r.Stats.MeanSpectralEff), f3(r.ActiveSE), f3(r.Stats.MeanFairnessIndex),
			})
		}
	}
	return []Table{t}, nil
}
