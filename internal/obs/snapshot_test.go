package obs

import (
	"errors"
	"math"
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
	for name, bounds := range map[string][]float64{"fewer bounds": {1, 2}, "a different bound": {1, 2, 5}} {
		w := snapshot.DecodeWalker(snapshot.NewDecoder(img))
		if NewHistogram(bounds).Walk(w); !errors.Is(w.Err(), snapshot.ErrCorrupt) {
			t.Errorf("%s: decode error %v, want snapshot.ErrCorrupt", name, w.Err())
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

	var e snapshot.Encoder
	r.Walk(snapshot.EncodeWalker(&e))
	w := snapshot.DecodeWalker(snapshot.NewDecoder(e.Bytes()))
	if r.Walk(w); w.Err() == nil {
		t.Error("decode into a registry that has already counted succeeded")
	}

	var bad snapshot.Encoder
	bad.Mark(tagRegistry)
	bad.U32(0)
	bad.U32(0)
	bad.U32(1)
	bad.String("h")
	bad.U32(2)
	bad.F64(5)
	bad.F64(math.Inf(-1))
	for i := 0; i < 3+3; i++ { // three buckets, then sum, count, max
		bad.U64(0)
	}
	w = snapshot.DecodeWalker(snapshot.NewDecoder(bad.Bytes()))
	if NewRegistry().Walk(w); !errors.Is(w.Err(), snapshot.ErrCorrupt) {
		t.Errorf("descending bounds: decode error %v, want snapshot.ErrCorrupt", w.Err())
	}
}
