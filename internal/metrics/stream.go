package metrics

import (
	"fmt"

	"outran/internal/obs"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

// Streaming FCT accumulation: instead of retaining one FCTSample per
// completed flow (unbounded at city scale), an FCTStream counts each
// completion into one of six fixed-layout exponential histograms —
// [size class] × [incast / non-incast] — and answers the same Stats
// queries as the exact recorder by merging the relevant subset and
// interpolating quantiles.
//
// Bucket geometry bounds the quantile error: with per-bucket growth
// 2^(1/16) ≈ 1.0443, any value is at most ~4.43% away from its bucket
// edges, so interpolated p50/p99 stay within the 5% relative-error
// budget of the exact estimator (mean and max are exact — tracked sum
// and max). Memory is fixed: 6 histograms × 341 counts ≈ 16 KB per
// cell regardless of flow count, the bounds being one shared layout.
const (
	// streamFactor is 2^(1/16).
	streamFactor = 1.0442737824274138
	// streamStart is the first bucket's upper bound: 0.05 ms in ns.
	streamStart = 50e3
	// streamBuckets spans 0.05 ms .. ~120 s, past any simulated FCT.
	streamBuckets = 340
)

// streamBounds is the shared bucket layout of every streaming FCT
// histogram (values in nanoseconds).
var streamBounds = obs.ExpBuckets(streamStart, streamFactor, streamBuckets)

// tagStream is the structural sentinel for an FCTStream snapshot.
const tagStream = 0x4e04

// FCTStream is the bounded-memory streaming FCT accumulator.
type FCTStream struct {
	// hists[class][0] counts non-incast completions, [class][1]
	// incast-marked ones.
	hists [3][2]*obs.Histogram
}

// NewFCTStream returns an empty streaming accumulator.
func NewFCTStream() *FCTStream {
	s := &FCTStream{}
	for c := range s.hists {
		for i := range s.hists[c] {
			s.hists[c][i] = obs.NewHistogram(streamBounds)
		}
	}
	return s
}

// Record counts one completed flow. The per-flow UE attribution of
// the exact recorder is intentionally dropped — that is the memory
// the streaming path exists to not spend.
func (s *FCTStream) Record(sample FCTSample) {
	i := 0
	if sample.Incast {
		i = 1
	}
	s.hists[ClassOf(sample.Size)][i].Observe(float64(sample.FCT))
}

// Completed returns the total number of recorded completions.
func (s *FCTStream) Completed() int {
	var n uint64
	for c := range s.hists {
		for i := range s.hists[c] {
			n += s.hists[c][i].Count()
		}
	}
	return int(n)
}

// Merge folds other's counts into s (cross-cell aggregation). The
// layouts always match — every stream shares streamBounds — so an
// error here means memory corruption, not usage.
func (s *FCTStream) Merge(other *FCTStream) error {
	for c := range s.hists {
		for i := range s.hists[c] {
			if err := s.hists[c][i].Merge(other.hists[c][i]); err != nil {
				return fmt.Errorf("metrics: merging fct streams: %w", err)
			}
		}
	}
	return nil
}

// stats merges the selected histograms and summarises them. class < 0
// selects all classes; incast < 0 selects both populations, 0 only
// non-incast, 1 only incast.
func (s *FCTStream) stats(class SizeClass, incast int) Stats {
	m := obs.NewHistogram(streamBounds)
	for c := range s.hists {
		if class >= 0 && SizeClass(c) != class {
			continue
		}
		for i := range s.hists[c] {
			if incast >= 0 && i != incast {
				continue
			}
			// Shared layout: Merge cannot fail.
			m.Merge(s.hists[c][i]) //nolint:errcheck
		}
	}
	return histStats(m)
}

// histStats summarises a histogram of nanosecond durations as the
// recorder's Stats schema: count, exact mean and max, interpolated
// percentiles.
func histStats(h *obs.Histogram) Stats {
	n := h.Count()
	if n == 0 {
		return Stats{}
	}
	return Stats{
		Count: int(n),
		Mean:  sim.Time(h.Sum() / float64(n)),
		P50:   sim.Time(h.Quantile(0.50)),
		P95:   sim.Time(h.Quantile(0.95)),
		P99:   sim.Time(h.Quantile(0.99)),
		Max:   sim.Time(h.Max()),
	}
}

// Overall returns stats over all completions.
func (s *FCTStream) Overall() Stats { return s.stats(-1, -1) }

// ByClass returns stats for one size class.
func (s *FCTStream) ByClass(c SizeClass) Stats { return s.stats(c, -1) }

// IncastStats returns stats over incast-marked completions only.
func (s *FCTStream) IncastStats() Stats { return s.stats(-1, 1) }

// NonIncastByClass returns stats for one class excluding incast.
func (s *FCTStream) NonIncastByClass(c SizeClass) Stats { return s.stats(c, 0) }

// Walk is the stream's checkpoint layout: all six histograms in fixed
// order.
func (s *FCTStream) Walk(w *snapshot.Walker) {
	w.Mark(tagStream)
	for c := range s.hists {
		for i := range s.hists[c] {
			s.hists[c][i].Walk(w)
		}
	}
}
