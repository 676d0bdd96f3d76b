package metrics

import (
	"math"
	"testing"

	"outran/internal/sim"
)

// Edge cases of the fairness index the scheduler sweep never hits:
// empty and single-flow sets, all-equal throughputs, and negative
// inputs (which the index clamps to zero).

func TestJainIndexEmptyFlowSet(t *testing.T) {
	if got := JainIndex(nil); got != 1 {
		t.Fatalf("empty set index %g, want 1", got)
	}
	if got := JainIndex([]float64{}); got != 1 {
		t.Fatalf("empty slice index %g, want 1", got)
	}
}

func TestJainIndexSingleFlow(t *testing.T) {
	if got := JainIndex([]float64{42.5}); got != 1 {
		t.Fatalf("single-flow index %g, want 1", got)
	}
	if got := JainIndex([]float64{0}); got != 1 {
		t.Fatalf("single zero-throughput flow index %g, want 1", got)
	}
}

func TestJainIndexAllEqualThroughputs(t *testing.T) {
	for _, n := range []int{2, 3, 17, 100} {
		v := make([]float64, n)
		for i := range v {
			v[i] = 3.25
		}
		if got := JainIndex(v); math.Abs(got-1) > 1e-12 {
			t.Fatalf("n=%d equal throughputs index %g, want 1", n, got)
		}
	}
}

func TestJainIndexNegativeClamped(t *testing.T) {
	// Negative throughputs are clamped to zero, so {-1, 1} behaves as
	// {0, 1}: one user takes everything -> 1/n.
	got := JainIndex([]float64{-1, 1})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("clamped index %g, want 0.5", got)
	}
	if got := JainIndex([]float64{-3, -7}); got != 1 {
		t.Fatalf("all-negative (all-clamped) index %g, want 1", got)
	}
}

func TestFloatPercentileEmpty(t *testing.T) {
	if got := FloatPercentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile %g, want 0", got)
	}
}

// recordingObserver captures the TrackerObserver callbacks in order.
type recordingObserver struct {
	samples  []float64 // activeSE values, to check the idle-block marker
	resets   int
	freezes  int
	lastTime sim.Time
}

func (r *recordingObserver) OnSample(now sim.Time, se, fairness, activeSE float64) {
	r.samples = append(r.samples, activeSE)
	r.lastTime = now
}
func (r *recordingObserver) OnReset()  { r.resets++ }
func (r *recordingObserver) OnFreeze() { r.freezes++ }

func TestTrackerObserverMirrorsSamples(t *testing.T) {
	tr := NewCellTracker(18e6, 0)
	tr.SamplePeriod = 5
	tr.RBBandwidthHz = 180e3
	tr.TTISeconds = 0.001
	rec := &recordingObserver{}
	tr.Obs = rec

	now := sim.Time(0)
	tick := func(bits, rbs int) {
		now += sim.Millisecond
		tr.OnTTIUsed(now, bits, rbs)
	}
	for i := 0; i < 6; i++ {
		tick(18000, 10) // first tick anchors; 5 more fold one sample
	}
	if len(rec.samples) != 1 {
		t.Fatalf("observer saw %d samples, tracker folded %d",
			len(rec.samples), len(tr.SpectralEfficiencySamples()))
	}
	if rec.samples[0] < 0 {
		t.Fatal("active block reported the idle marker")
	}
	if rec.lastTime != now {
		t.Fatalf("sample stamped %v, want %v", rec.lastTime, now)
	}
	for i := 0; i < 5; i++ {
		tick(0, 0) // idle block: folds a sample with no active-SE part
	}
	if len(rec.samples) != 2 || rec.samples[1] != -1 {
		t.Fatalf("idle block should report activeSE -1, got %v", rec.samples)
	}
	tr.Freeze()
	if rec.freezes != 1 {
		t.Fatalf("freezes %d, want 1", rec.freezes)
	}
	tr.Reset()
	if rec.resets != 1 {
		t.Fatalf("resets %d, want 1", rec.resets)
	}
	if len(tr.SpectralEfficiencySamples()) != 0 {
		t.Fatal("reset did not clear samples")
	}
}
