package obs

import (
	"errors"
	"math"
	"strings"
	"testing"

	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestHistogramWalkRoundTrip: a standalone histogram survives encode ->
// decode -> encode byte for byte, and only into its own bucket layout.
func TestHistogramWalkRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 3, 3, 9} {
		h.Observe(v)
	}
	fresh := NewHistogram([]float64{1, 2, 4})
	img := snapshottest.RoundTrip(t, h.Walk, fresh.Walk)
	if fresh.Count() != 4 || fresh.Max() != 9 || fresh.Quantile(0.5) != h.Quantile(0.5) {
		t.Fatalf("restored histogram answers differently: %+v vs %+v", fresh, h)
	}
	for _, tc := range []struct {
		name   string
		bounds []float64
		want   string // the check that must refuse it
	}{
		{"fewer bounds", []float64{1, 2}, "3 histogram bounds, restore target is built with 2"},
		{"a different bound", []float64{1, 2, 5}, "bucket layout mismatch at bound 2"},
	} {
		err := snapshottest.Decode(img, NewHistogram(tc.bounds).Walk)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want snapshot.ErrCorrupt saying %q", tc.name, err, tc.want)
		}
	}
}

// TestRegistryWalkRoundTrip: a registry decodes into an empty one and
// into one whose construction pre-registered still-zero instruments,
// refuses one that has already counted, and turns a histogram whose
// stored bounds do not ascend into an error, not NewHistogram's panic.
func TestRegistryWalkRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("harq_tx").Add(7)
	r.Counter("drops")
	r.Gauge("checkpoint_bytes").Set(1234.5)
	r.Histogram("fct_ms", []float64{1, 10, 100}).Observe(42)

	pre := NewRegistry()
	pre.Counter("harq_tx")
	pre.Histogram("fct_ms", []float64{1, 10, 100})
	for name, fresh := range map[string]*Registry{"empty": NewRegistry(), "pre-registered": pre} {
		snapshottest.RoundTrip(t, r.Walk, fresh.Walk)
		if got := fresh.Flatten(); got["harq_tx"] != 7 || got["checkpoint_bytes"] != 1234.5 || got["fct_ms_count"] != 1 {
			t.Errorf("%s target: restored registry flattens to %v", name, got)
		}
	}

	if err := snapshottest.Decode(snapshottest.Encode(r.Walk), r.Walk); err == nil {
		t.Error("decode into a registry that has already counted succeeded")
	}

	bad := snapshottest.Encode(func(w *snapshot.Walker) {
		w.Mark(tagRegistry)
		counters, gauges, histograms, name, bounds := uint32(0), uint32(0), uint32(1), "h", uint32(2)
		w.U32(&counters)
		w.U32(&gauges)
		w.U32(&histograms)
		w.String(&name)
		w.U32(&bounds)
		for _, b := range []float64{5, math.Inf(-1)} {
			w.F64(&b)
		}
		w.Raw(make([]byte, 8*(3+3))) // three buckets, then sum, count, max
	})
	if err := snapshottest.Decode(bad, NewRegistry().Walk); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("descending bounds: decode error %v, want snapshot.ErrCorrupt", err)
	}
}
