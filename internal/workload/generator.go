package workload

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"outran/internal/rng"
	"outran/internal/sim"
)

// FlowSpec is one generated flow: destination UE, size, and start time.
type FlowSpec struct {
	Start sim.Time
	UE    int
	Size  int64
	// Incast marks flows from the incast class (§6.3).
	Incast bool
}

// startKey is sortByStart's sort key: a flow's start and its index in
// generation order.
type startKey struct {
	start sim.Time
	i     int32 // -1 once the flow is in place
}

// Radix sort geometry: 11-bit digits, so a schedule whose starts span
// 2^33 ns (8.6 s) sorts in three counting passes over a 2048-bucket
// table.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// sortByStart orders a schedule by start time, keeping the generation
// order of simultaneous flows (the order is part of workload_digest).
// The (start, generation index) keys are ordered by an LSD radix sort
// on the start alone: the keys enter in index order and every pass is
// stable, so ties keep it. Each pass sorts on one 11-bit digit of the
// start's offset from the earliest start, taken as unsigned — any
// int64 start, negative ones included, sorts this way — and a digit
// every key shares is skipped. Each flow then moves once, along the
// permutation's cycles; a stable sort of the flows themselves spends
// O(n log² n) moves in its merges and rotations.
// keys is scratch for two key arrays, grown as needed and returned, so
// a caller sorting several schedules allocates it once.
func sortByStart(flows []FlowSpec, keys []startKey) []startKey {
	n := len(flows)
	keys = slices.Grow(keys[:0], 2*n)[:2*n]
	order := keys[:n] // order[j] names the flow that goes to j
	if n == 0 {
		return keys
	}
	lo, hi := flows[0].Start, flows[0].Start
	for i, f := range flows {
		order[i] = startKey{f.Start, int32(i)}
		lo, hi = min(lo, f.Start), max(hi, f.Start)
	}
	order = radixSortKeys(order, keys[n:], uint64(lo), uint64(hi)-uint64(lo))
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
	return keys
}

// radixSortKeys stably sorts keys by start, whose offsets from lo
// (unsigned, so the subtraction cannot overflow) are at most span,
// using tmp, of the same length, as the other buffer. It returns
// whichever of the two holds the result.
func radixSortKeys(keys, tmp []startKey, lo, span uint64) []startKey {
	var count [1 << radixBits]int
	for shift := 0; shift < bits.Len64(span); shift += radixBits {
		clear(count[:])
		for _, k := range keys {
			count[(uint64(k.start)-lo)>>shift&radixMask]++
		}
		if count[(uint64(keys[0].start)-lo)>>shift&radixMask] == len(keys) {
			continue // every key has this digit: the pass would copy
		}
		at := 0
		for d, c := range count {
			count[d] = at
			at += c
		}
		for _, k := range keys {
			d := (uint64(k.start) - lo) >> shift & radixMask
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
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
	flows, _ := drawPoisson(cfg.Dist, cfg.NumUEs, targetVol, 0, cfg.Duration, r, math.MaxInt)
	if cfg.MaxFlows > 0 && len(flows) > cfg.MaxFlows {
		flows = flows[:cfg.MaxFlows]
	}
	sortByStart(flows, nil)
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
