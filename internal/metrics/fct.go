// Package metrics collects the evaluation metrics of the paper: flow
// completion times bucketed by size class, Jain's fairness index over
// the users' long-term throughput (eq. 3), spectral efficiency
// sampled every 50 TTIs, and queueing delay.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"outran/internal/sim"
)

// Size-class boundaries used throughout the paper's evaluation:
// short (0,10 KB], medium (10 KB, 0.1 MB], long (0.1 MB, inf).
const (
	ShortMax  = 10 * 1024
	MediumMax = 100 * 1024
)

// SizeClass buckets a flow by its size.
type SizeClass int

// Size classes.
const (
	Short SizeClass = iota
	Medium
	Long
)

func (c SizeClass) String() string {
	switch c {
	case Short:
		return "S"
	case Medium:
		return "M"
	case Long:
		return "L"
	}
	return "?"
}

// ClassOf returns the size class of a flow.
func ClassOf(size int64) SizeClass {
	switch {
	case size <= ShortMax:
		return Short
	case size <= MediumMax:
		return Medium
	default:
		return Long
	}
}

// FCTSample records one completed flow.
type FCTSample struct {
	Size   int64
	FCT    sim.Time
	UE     int
	Incast bool
}

// DefaultExactCap bounds the exact recorder's retained samples. A
// retained sample is 16 bytes (fctRec), so the default caps per-flow
// retention at ~16 MB per recorder; past it the recorder auto-degrades
// to the streaming path (see Record) instead of growing without bound.
const DefaultExactCap = 1 << 20

// SizeLimit and UELimit bound what a retained sample can hold: flow
// sizes below 2^40 and UE indices below 2^23. ran.StartFlow and
// ran.Config.Validate keep larger values from reaching Record.
const (
	SizeLimit = 1 << sizeBits
	UELimit   = 1 << ueBits
)

// fctRec is one retained sample, 16 bytes: the FCT, and meta =
// Size | UE<<40 | Incast<<63.
type fctRec struct {
	fct  sim.Time
	meta uint64
}

// The split of fctRec.meta.
const (
	sizeBits  = 40
	ueBits    = 23
	incastBit = sizeBits + ueBits
)

// packFCT packs s, reporting false when its size or UE does not fit.
func packFCT(s FCTSample) (fctRec, bool) {
	if uint64(s.Size) >= SizeLimit || uint(s.UE) >= UELimit {
		return fctRec{}, false
	}
	meta := uint64(s.Size) | uint64(s.UE)<<sizeBits
	if s.Incast {
		meta |= 1 << incastBit
	}
	return fctRec{fct: s.FCT, meta: meta}, true
}

func (rec fctRec) size() int64  { return int64(rec.meta & (SizeLimit - 1)) }
func (rec fctRec) incast() bool { return rec.meta>>incastBit != 0 }

func (rec fctRec) sample() FCTSample {
	return FCTSample{Size: rec.size(), FCT: rec.fct, UE: int(rec.meta >> sizeBits & (UELimit - 1)), Incast: rec.incast()}
}

// FCTRecorder accumulates flow completion times. The zero value is
// the exact recorder, retaining every sample up to a hard cap;
// NewStreamingFCTRecorder builds the bounded-memory variant that
// counts completions into fixed-layout histograms instead (see
// FCTStream).
type FCTRecorder struct {
	samples  []fctRec
	started  int
	degraded bool       // exact path hit its cap and fell back to streaming
	stream   *FCTStream // non-nil selects the streaming path
}

// NewStreamingFCTRecorder returns a recorder on the bounded-memory
// streaming path: no per-flow retention, quantiles interpolated from
// exponential histograms within ~4.4% of the exact estimator.
func NewStreamingFCTRecorder() *FCTRecorder {
	return &FCTRecorder{stream: NewFCTStream()}
}

// FlowStarted counts an admitted flow (for completion-rate checks).
func (r *FCTRecorder) FlowStarted() { r.started++ }

// Record adds a completed flow. On the exact path, hitting the
// retained-sample cap degrades the recorder to the streaming path —
// every retained sample is folded into a fresh FCTStream, retention
// stops, and Degraded() reports the fallback so callers can surface
// it — rather than letting a metro-scale run grow memory without
// bound. A sample whose size or UE is outside SizeLimit / UELimit is
// a wiring bug, and Record panics on it.
func (r *FCTRecorder) Record(s FCTSample) {
	if r.stream == nil && len(r.samples) >= DefaultExactCap {
		r.degrade()
	}
	if r.stream != nil {
		r.stream.Record(s)
		return
	}
	rec, ok := packFCT(s)
	if !ok {
		panic(fmt.Sprintf("metrics: FCT sample of %d bytes for UE %d outside [0, 2^40) x [0, 2^23)", s.Size, s.UE))
	}
	r.samples = append(r.samples, rec)
}

// degrade folds the retained samples into a streaming accumulator and
// switches the recorder to the streaming path. Deterministic: it
// triggers on sample count alone, so same-seed runs degrade at the
// same completion.
func (r *FCTRecorder) degrade() {
	s := NewFCTStream()
	for _, rec := range r.samples {
		s.Record(rec.sample())
	}
	r.samples = nil
	r.stream = s
	r.degraded = true
}

// Degraded reports whether the exact path hit its cap and fell back
// to streaming accumulation.
func (r *FCTRecorder) Degraded() bool { return r.degraded }

// Started returns the number of started flows.
func (r *FCTRecorder) Started() int { return r.started }

// Completed returns the number of completed flows.
func (r *FCTRecorder) Completed() int {
	if r.stream != nil {
		return r.stream.Completed()
	}
	return len(r.samples)
}

// Samples returns a fresh copy of the retained samples, in completion
// order. The streaming path retains none and returns nil — callers
// needing per-flow records must use the exact recorder.
func (r *FCTRecorder) Samples() []FCTSample {
	if len(r.samples) == 0 {
		return nil
	}
	out := make([]FCTSample, len(r.samples))
	for i, rec := range r.samples {
		out[i] = rec.sample()
	}
	return out
}

// Stream returns the streaming accumulator, nil on the exact path.
func (r *FCTRecorder) Stream() *FCTStream { return r.stream }

// fctsOf filters by class; class < 0 selects everything.
func (r *FCTRecorder) fctsOf(class SizeClass, incastOnly bool) []sim.Time {
	out := make([]sim.Time, 0, len(r.samples))
	for _, rec := range r.samples {
		if class >= 0 && ClassOf(rec.size()) != class {
			continue
		}
		if incastOnly && !rec.incast() {
			continue
		}
		out = append(out, rec.fct)
	}
	return out
}

// Stats summarises a set of FCTs. The JSON field names are part of the
// run-summary schema (see RunSummary) shared by outran-sim, outran-bench
// and the trace tooling.
type Stats struct {
	Count int      `json:"count"`
	Mean  sim.Time `json:"mean_ns"`
	P50   sim.Time `json:"p50_ns"`
	P95   sim.Time `json:"p95_ns"`
	P99   sim.Time `json:"p99_ns"`
	Max   sim.Time `json:"max_ns"`
}

// ComputeStats summarises durations (empty input gives zeros).
func ComputeStats(fcts []sim.Time) Stats {
	if len(fcts) == 0 {
		return Stats{}
	}
	sorted := append([]sim.Time(nil), fcts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Time
	for _, v := range sorted {
		sum += v
	}
	return Stats{
		Count: len(sorted),
		Mean:  sum / sim.Time(len(sorted)),
		P50:   Percentile(sorted, 0.50),
		P95:   Percentile(sorted, 0.95),
		P99:   Percentile(sorted, 0.99),
		Max:   sorted[len(sorted)-1],
	}
}

// Percentile returns the p-quantile of an ascending slice.
func Percentile(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := p * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo] + sim.Time(frac*float64(sorted[hi]-sorted[lo]))
}

// Overall returns stats over all completed flows.
func (r *FCTRecorder) Overall() Stats {
	if r.stream != nil {
		return r.stream.Overall()
	}
	return ComputeStats(r.fctsOf(-1, false))
}

// ByClass returns stats for one size class.
func (r *FCTRecorder) ByClass(c SizeClass) Stats {
	if r.stream != nil {
		return r.stream.ByClass(c)
	}
	return ComputeStats(r.fctsOf(c, false))
}

// IncastStats returns stats over incast-marked flows only.
func (r *FCTRecorder) IncastStats() Stats {
	if r.stream != nil {
		return r.stream.IncastStats()
	}
	return ComputeStats(r.fctsOf(-1, true))
}

// NonIncastByClass returns stats for one class excluding incast flows.
func (r *FCTRecorder) NonIncastByClass(c SizeClass) Stats {
	if r.stream != nil {
		return r.stream.NonIncastByClass(c)
	}
	out := make([]sim.Time, 0, len(r.samples))
	for _, rec := range r.samples {
		if !rec.incast() && ClassOf(rec.size()) == c {
			out = append(out, rec.fct)
		}
	}
	return ComputeStats(out)
}

// CDF returns (value, cumulative probability) pairs for plotting.
func CDF(fcts []sim.Time) (values []sim.Time, probs []float64) {
	sorted := append([]sim.Time(nil), fcts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	probs = make([]float64, len(sorted))
	for i := range sorted {
		probs[i] = float64(i+1) / float64(len(sorted))
	}
	return sorted, probs
}
