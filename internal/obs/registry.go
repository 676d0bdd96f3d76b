package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Registry holds the run's named counters, gauges and histograms —
// the structured replacement for ad-hoc counter fields scattered over
// the cell. Instruments are identified by name; Counter/Gauge/
// Histogram return the existing instrument when the name is already
// registered, so call sites need no shared setup order. The registry
// is used from the single-threaded simulation loop and does no
// locking.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time value.
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket-layout histogram: Observe counts each
// value into the first bucket whose upper bound is >= v, with an
// implicit +Inf bucket, and accumulates sum, count and the exact
// maximum. The layout is fixed at registration so every run exports
// the same schema.
type Histogram struct {
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []uint64  // len(bounds)+1, last is +Inf
	sum    float64
	count  uint64
	max    float64 // exact maximum observed; meaningful only when count > 0
}

// NewHistogram returns a standalone histogram with the given fixed
// bucket layout; bounds must be ascending. The histogram keeps bounds
// rather than a copy, so histograms built over one layout share it;
// the caller must not modify the slice afterwards. Use
// Registry.Histogram for named, exported instruments.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the exact maximum observed value (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket the target rank falls into. The
// estimate is clamped to the tracked exact maximum, so the +Inf
// bucket never extrapolates; with exponential buckets of width factor
// f the relative error is bounded by f-1.
//
// Degenerate inputs are pinned by TestQuantileDegenerateInputs:
// an empty histogram returns 0 for every q (including NaN); q >= 1
// returns the exact maximum; q <= 0 clamps to 0 and returns the lower
// edge of the first occupied bucket (the histogram's minimum
// estimate); a NaN q returns NaN — before this was made explicit, NaN
// fell through every rank comparison and silently aliased the
// maximum, indistinguishable from q=1.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	target := q * float64(h.count)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			// The +Inf bucket's effective upper bound is the exact
			// max; finite buckets clamp to it too, which tightens
			// the estimate when the max lands mid-bucket.
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				return h.max
			}
			frac := (target - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			v := lo + frac*(hi-lo)
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Merge folds other's observations into h. Both histograms must share
// an identical bucket layout; merging disjoint layouts is an error.
func (h *Histogram) Merge(other *Histogram) error {
	if len(h.bounds) != len(other.bounds) {
		return fmt.Errorf("obs: merge: bucket layout mismatch: %d vs %d bounds",
			len(h.bounds), len(other.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != other.bounds[i] {
			return fmt.Errorf("obs: merge: bucket layout mismatch at bound %d: %v vs %v",
				i, h.bounds[i], other.bounds[i])
		}
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.sum += other.sum
	if other.count > 0 && (h.count == 0 || other.max > h.max) {
		h.max = other.max
	}
	h.count += other.count
	return nil
}

// Reset zeroes all observations, keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum = 0
	h.count = 0
	h.max = 0
}

// BucketCounts returns the per-bucket counts (last bucket is +Inf).
func (h *Histogram) BucketCounts() []uint64 {
	return append([]uint64(nil), h.counts...)
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given factor — the standard latency layout helper.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		return []float64{start}
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named histogram with
// the given fixed bucket layout. An existing histogram keeps its
// original layout; bounds must be ascending and, as for NewHistogram,
// not modified afterwards.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := r.histograms[name]
	if h != nil {
		return h
	}
	h = NewHistogram(bounds)
	r.histograms[name] = h
	return h
}

// Flatten exports every instrument as flat name->value pairs with a
// stable naming scheme: counters and gauges under their own name,
// histograms as name_sum, name_count, name_p50/name_p99 streaming
// quantile estimates and name_le_<bound> cumulative buckets
// (name_le_inf last). The map marshals deterministically
// (encoding/json sorts keys), making it safe to embed in summaries
// compared across same-seed runs.
func (r *Registry) Flatten() map[string]float64 {
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+8*len(r.histograms))
	// Order-free: each instrument writes distinct keys; visit order cannot matter
	for name, c := range r.counters {
		out[name] = float64(c.v)
	}
	// Order-free: each instrument writes distinct keys; visit order cannot matter
	for name, g := range r.gauges {
		out[name] = g.v
	}
	// Order-free: each instrument writes distinct keys; visit order cannot matter
	for name, h := range r.histograms {
		out[name+"_sum"] = h.sum
		out[name+"_count"] = float64(h.count)
		out[name+"_p50"] = h.Quantile(0.5)
		out[name+"_p99"] = h.Quantile(0.99)
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			out[name+"_le_"+formatBound(b)] = float64(cum)
		}
		out[name+"_le_inf"] = float64(h.count)
	}
	return out
}

// formatBound renders a bucket bound compactly and unambiguously.
func formatBound(b float64) string {
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return strconv.FormatInt(int64(b), 10)
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Names returns the registered instrument names, sorted, for
// deterministic iteration by exporters and tests.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	// Order-free: collected names are sorted before returning
	for n := range r.counters {
		names = append(names, n)
	}
	// Order-free: collected names are sorted before returning
	for n := range r.gauges {
		names = append(names, n)
	}
	// Order-free: collected names are sorted before returning
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
