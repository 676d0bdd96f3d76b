package experiments

import (
	"fmt"
	"runtime"
	"time"

	"outran/internal/deploy"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

func init() {
	register("capacity", Capacity)
}

// CapacitySLO is the flow-completion service-level objective the
// capacity search probes against: a load point is sustainable while
// the deployment-aggregate p99 FCT of the short class stays at or
// under this bound. The SLO is on short flows, not the overall
// distribution, because the heavy-tailed workload puts elephants in
// the overall p99 at any load — short-flow tail latency is the
// user-visible stall budget the paper's arguments are about.
const CapacitySLO = 250 * sim.Millisecond

// CapacitySpec fixes one deployment measurement point: a cell count, a
// per-cell topology, and an offered load, run through the deployment
// runtime with the streaming FCT recorder (the deployment default —
// capacity runs are exactly the scale exact recording cannot afford).
type CapacitySpec struct {
	Cells      int
	UEsPerCell int
	RBs        int
	Load       float64
	Window     sim.Time
	Drain      sim.Time
	Workers    int               // <= 0: GOMAXPROCS
	Sched      ran.SchedulerKind // "" : SchedOutRAN
	Seed       uint64
}

// CapacityPoint is one measured deployment point: the simulated
// outcome (p99, flows) plus the machine-efficiency headline numbers
// derived from wall clock and peak RSS. CellsPerCore is how many cells
// one core sustains at real-time speed (cells × sim-seconds per
// core-wall-second); UEsPerGB divides the deployment's UE population
// by the process's peak resident set.
type CapacityPoint struct {
	Cells        int
	UEs          int // total across cells
	Workers      int // effective pool size
	Load         float64
	ShortP99     sim.Time // p99 FCT of the short class (the SLO metric)
	ShortFlows   int
	Flows        int
	SimSeconds   float64
	WallSeconds  float64
	CellsPerCore float64
	UEsPerGB     float64
	PeakRSS      uint64
}

// effectiveWorkers resolves the deploy pool semantics (0 = GOMAXPROCS,
// never more workers than cells) into the divisor the per-core
// normalisation needs.
func (s CapacitySpec) effectiveWorkers() int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > s.Cells {
		w = s.Cells
	}
	return w
}

// MeasureDeployment runs one fixed-load deployment and returns the
// capacity point. The wall-clock and RSS numbers are machine facts,
// not simulation facts: everything simulated stays byte-identical for
// a given spec regardless of worker count or host speed.
func MeasureDeployment(spec CapacitySpec) (CapacityPoint, error) {
	sched := spec.Sched
	if sched == "" {
		sched = ran.SchedOutRAN
	}
	cfg := ran.DefaultLTEConfig().
		WithTopology(spec.UEsPerCell, spec.RBs).
		ForScheduler(sched).
		WithSeed(spec.Seed).
		WithWorkload(workload.PoissonSpec("lte", spec.Load))
	const capWarmup = 500 * sim.Millisecond
	dcfg := deploy.Config{
		Cells:   spec.Cells,
		Workers: spec.Workers,
		Cell:    cfg,
		Warmup:  capWarmup,
		Window:  spec.Window,
		Drain:   spec.Drain,
		Seed:    spec.Seed,
	}
	// Wall clock: measures deployment throughput (cells/core); never enters simulated results
	start := time.Now()
	res, err := deploy.Run(dcfg)
	if err != nil {
		return CapacityPoint{}, fmt.Errorf("capacity: %d cells at load %.2f: %w", spec.Cells, spec.Load, err)
	}
	// Wall clock: measures deployment throughput (cells/core); never enters simulated results
	wall := time.Since(start).Seconds()
	workers := spec.effectiveWorkers()
	simSec := (capWarmup + spec.Window + spec.Drain).Seconds()
	pt := CapacityPoint{
		Cells:       spec.Cells,
		UEs:         spec.Cells * spec.UEsPerCell,
		Workers:     workers,
		Load:        spec.Load,
		ShortP99:    res.Aggregate.FCTShort.P99,
		ShortFlows:  res.Aggregate.FCTShort.Count,
		Flows:       res.Aggregate.FCTOverall.Count,
		SimSeconds:  simSec,
		WallSeconds: wall,
		PeakRSS:     deploy.PeakRSSBytes(),
	}
	if wall > 0 && workers > 0 {
		pt.CellsPerCore = float64(spec.Cells) * simSec / (wall * float64(workers))
	}
	if pt.PeakRSS > 0 {
		pt.UEsPerGB = float64(pt.UEs) / (float64(pt.PeakRSS) / (1 << 30))
	}
	return pt, nil
}

// CapacitySearch binary-searches the offered load per cell until the
// deployment-aggregate short-flow FCT p99 breaks the SLO, and returns
// the highest sustainable point found. The bracket [0.1, 1.2] spans "trivially
// sustainable" to "offered load past cell capacity"; five bisection
// steps pin the knee to ~2% of load, well inside run-to-run noise.
func CapacitySearch(spec CapacitySpec, slo sim.Time) (CapacityPoint, error) {
	lo, hi := 0.1, 1.2
	probe := func(load float64) (CapacityPoint, bool, error) {
		s := spec
		s.Load = load
		pt, err := MeasureDeployment(s)
		if err != nil {
			return pt, false, err
		}
		return pt, pt.ShortFlows > 0 && pt.ShortP99 <= slo, nil
	}
	// The upper bracket first: if even past-capacity load holds the
	// SLO, the SLO is not binding at this scale and hi is the answer.
	if pt, ok, err := probe(hi); err != nil {
		return pt, err
	} else if ok {
		return pt, nil
	}
	best, ok, err := probe(lo)
	if err != nil {
		return best, err
	}
	if !ok {
		// Even the lightest load misses the SLO: report the lo point so
		// the caller sees how far off it is rather than an error.
		return best, nil
	}
	for i := 0; i < 5; i++ {
		mid := (lo + hi) / 2
		pt, ok, err := probe(mid)
		if err != nil {
			return best, err
		}
		if ok {
			best, lo = pt, mid
		} else {
			hi = mid
		}
	}
	return best, nil
}

// Capacity is the experiment harness: sweep the cell count at a fixed
// worker pool, binary-search the sustainable load per cell, and report
// each knee with the machine-efficiency headline numbers. The load and
// p99 columns are deterministic per seed; the wall/cells-per-core/
// UEs-per-GB columns are machine facts and vary by host.
func Capacity(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	counts := []int{2, 4, 8}
	if opt.Scale > 0 && opt.Scale < 1 {
		counts = []int{2, 4}
	}
	window := opt.Duration
	if window > 6*sim.Second {
		window = 6 * sim.Second
	}
	drain := opt.Drain
	if drain > 6*sim.Second {
		drain = 6 * sim.Second
	}
	t := Table{
		Title: fmt.Sprintf("Capacity: max offered load per cell before short-flow FCT p99 breaks the %v SLO", CapacitySLO),
		Header: []string{"sched", "cells", "UEs", "workers", "load*", "short p99 (ms)", "flows",
			"wall (s)", "cells/core", "UEs/GB", "peak RSS (MB)"},
	}
	for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
		for _, cells := range counts {
			pt, err := CapacitySearch(CapacitySpec{
				Cells:      cells,
				UEsPerCell: opt.UEs,
				RBs:        opt.RBs,
				Window:     window,
				Drain:      drain,
				Workers:    opt.Workers,
				Sched:      sched,
				Seed:       opt.Seed,
			}, CapacitySLO)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				string(sched),
				fmt.Sprint(pt.Cells), fmt.Sprint(pt.UEs), fmt.Sprint(pt.Workers),
				f2(pt.Load), ms(pt.ShortP99), fmt.Sprint(pt.Flows),
				f2(pt.WallSeconds), f2(pt.CellsPerCore), f2(pt.UEsPerGB),
				fmt.Sprintf("%.0f", float64(pt.PeakRSS)/(1<<20)),
			})
		}
	}
	return []Table{t}, nil
}
