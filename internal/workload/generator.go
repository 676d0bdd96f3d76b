package workload

import (
	"cmp"
	"fmt"
	"slices"

	"outran/internal/rng"
	"outran/internal/sim"
)

// FlowSpec is one generated flow: destination UE, size, and start time.
type FlowSpec struct {
	Start sim.Time
	UE    int
	Size  int64
	// Incast marks flows from the incast class/generator (§6.3).
	Incast bool
}

// startKey is sortByStart's sort key: a flow's start and its index in
// generation order.
type startKey struct {
	start sim.Time
	i     int32 // -1 once the flow is in place
}

// sortByStart orders a schedule by start time, keeping the generation
// order of simultaneous flows (the order is part of workload_digest).
// (Start, generation index) is a total order, so an unstable sort of
// those keys gives the stable order by construction; each flow then
// moves once, along the permutation's cycles. A stable sort of the
// flows themselves spends O(n log² n) moves in its merges and rotations.
// keys is scratch for the keys, grown as needed and returned, so a
// caller sorting several schedules allocates it once.
func sortByStart(flows []FlowSpec, keys []startKey) []startKey {
	order := slices.Grow(keys[:0], len(flows))[:len(flows)] // order[j] names the flow that goes to j
	for i, f := range flows {
		order[i] = startKey{f.Start, int32(i)}
	}
	slices.SortFunc(order, func(a, b startKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	for j := range order {
		if order[j].i < 0 {
			continue // placed with an earlier cycle
		}
		first, k := flows[j], j
		for {
			from := int(order[k].i)
			order[k].i = -1
			if from == j {
				flows[k] = first
				break
			}
			flows[k] = flows[from]
			k = from
		}
	}
	return order
}

// PoissonConfig drives the classic generator: UEs request downlink
// flows according to a Poisson process with sizes from Dist, calibrated
// so the offered load equals Load x CellCapacityBps. It remains as a
// thin adapter over the Spec engine for callers that assemble cells by
// hand; harness-driven runs declare a Spec on ran.Config instead.
type PoissonConfig struct {
	Dist            *rng.EmpiricalCDF
	NumUEs          int
	Load            float64 // offered load fraction of capacity
	CellCapacityBps float64 // estimated cell capacity
	Duration        sim.Time
	// MaxFlows caps generation (0 = no cap).
	MaxFlows int
}

// Poisson generates the flow arrival schedule as a sorted Source.
// Arrivals are assigned to UEs uniformly, matching the paper's setup
// where every UE requests service from the remote server.
//
// The schedule is volume-matched: flow sizes are drawn until their sum
// reaches Load x Capacity x Duration, and arrival instants are then
// placed uniformly at random over the window (a Poisson process
// conditioned on its count). With heavy-tailed sizes this guarantees
// every run actually offers the requested load — naive rate-based
// generation under-delivers badly on short runs because the rare huge
// flows that dominate the analytic mean are usually absent from the
// sample.
func Poisson(cfg PoissonConfig, r *rng.Source) (Source, error) {
	if cfg.Dist == nil {
		return nil, fmt.Errorf("workload: nil distribution")
	}
	if cfg.NumUEs <= 0 || cfg.Load <= 0 || cfg.CellCapacityBps <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: invalid Poisson config %+v", cfg)
	}
	targetVol := int64(cfg.Load * cfg.CellCapacityBps / 8 * cfg.Duration.Seconds())
	flows := drawPoisson(cfg.Dist, cfg.NumUEs, targetVol, 0, cfg.Duration, r)
	if cfg.MaxFlows > 0 && len(flows) > cfg.MaxFlows {
		flows = flows[:cfg.MaxFlows]
	}
	sortByStart(flows, nil)
	return SliceSource(flows), nil
}

// IncastConfig reproduces the §6.3 worst case: bursts of simultaneous
// fixed-size short flows layered on the base workload, taking a given
// fraction of the traffic volume.
type IncastConfig struct {
	FlowSize       int64   // 8 KB in the paper
	VolumeFraction float64 // 0.1 in the paper
	BurstSize      int     // simultaneous flows per burst
	BaseLoadBps    float64 // bytes-domain base offered load (bits/s)
	NumUEs         int
	Duration       sim.Time
}

// Incast generates periodic synchronized bursts of short flows as a
// sorted Source.
func Incast(cfg IncastConfig, r *rng.Source) (Source, error) {
	if cfg.FlowSize <= 0 || cfg.BurstSize <= 0 || cfg.VolumeFraction <= 0 {
		return nil, fmt.Errorf("workload: invalid incast config %+v", cfg)
	}
	// UE assignment draws r.Intn(NumUEs), which panics on a
	// non-positive argument — validate it like Poisson does.
	if cfg.NumUEs <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: invalid incast config %+v", cfg)
	}
	incastBps := cfg.BaseLoadBps * cfg.VolumeFraction
	bytesPerBurst := cfg.FlowSize * int64(cfg.BurstSize)
	period := sim.Time(float64(bytesPerBurst*8) / incastBps * float64(sim.Second))
	if period <= 0 {
		return nil, fmt.Errorf("workload: degenerate incast period")
	}
	var flows []FlowSpec
	for t := period; t < cfg.Duration; t += period {
		for i := 0; i < cfg.BurstSize; i++ {
			flows = append(flows, FlowSpec{
				Start:  t,
				UE:     r.Intn(cfg.NumUEs),
				Size:   cfg.FlowSize,
				Incast: true,
			})
		}
	}
	return SliceSource(flows), nil
}

// TotalBytes sums the schedule volume.
func TotalBytes(flows []FlowSpec) int64 {
	var n int64
	for _, f := range flows {
		n += f.Size
	}
	return n
}
