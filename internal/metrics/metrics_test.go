package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"outran/internal/sim"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		size int64
		want SizeClass
	}{
		{1, Short}, {10 * 1024, Short}, {10*1024 + 1, Medium},
		{100 * 1024, Medium}, {100*1024 + 1, Long}, {1 << 30, Long},
	}
	for _, c := range cases {
		if got := ClassOf(c.size); got != c.want {
			t.Errorf("ClassOf(%d) = %v, want %v", c.size, got, c.want)
		}
	}
	if Short.String() != "S" || Medium.String() != "M" || Long.String() != "L" {
		t.Fatal("class names")
	}
}

func TestStatsBasics(t *testing.T) {
	var fcts []sim.Time
	for i := 1; i <= 100; i++ {
		fcts = append(fcts, sim.Time(i)*sim.Millisecond)
	}
	s := ComputeStats(fcts)
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Mean != sim.Time(50.5*float64(sim.Millisecond)) {
		t.Fatalf("mean %v", s.Mean)
	}
	if s.Max != 100*sim.Millisecond {
		t.Fatalf("max %v", s.Max)
	}
	if s.P50 < 50*sim.Millisecond || s.P50 > 51*sim.Millisecond {
		t.Fatalf("p50 %v", s.P50)
	}
	if s.P99 < 99*sim.Millisecond || s.P99 > 100*sim.Millisecond {
		t.Fatalf("p99 %v", s.P99)
	}
}

func TestStatsEmpty(t *testing.T) {
	if s := ComputeStats(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatal("empty stats not zero")
	}
}

func TestPercentileUnsortedInputNotRequired(t *testing.T) {
	sorted := []sim.Time{10, 20, 30, 40}
	if Percentile(sorted, 0) != 10 || Percentile(sorted, 1) != 40 {
		t.Fatal("extremes wrong")
	}
	if Percentile(sorted, 0.5) != 25 {
		t.Fatalf("median %v", Percentile(sorted, 0.5))
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestRecorderClassFiltering(t *testing.T) {
	var r FCTRecorder
	r.FlowStarted()
	r.FlowStarted()
	r.FlowStarted()
	r.Record(FCTSample{Size: 5 * 1024, FCT: 10 * sim.Millisecond})
	r.Record(FCTSample{Size: 50 * 1024, FCT: 30 * sim.Millisecond})
	r.Record(FCTSample{Size: 5 * 1024 * 1024, FCT: 900 * sim.Millisecond, Incast: true})
	if r.Started() != 3 || r.Completed() != 3 {
		t.Fatal("counters wrong")
	}
	if r.ByClass(Short).Count != 1 || r.ByClass(Medium).Count != 1 || r.ByClass(Long).Count != 1 {
		t.Fatal("class filters wrong")
	}
	if r.Overall().Count != 3 {
		t.Fatal("overall wrong")
	}
	if r.IncastStats().Count != 1 {
		t.Fatal("incast filter wrong")
	}
	if r.NonIncastByClass(Short).Count != 1 || r.NonIncastByClass(Long).Count != 0 {
		t.Fatal("non-incast filter wrong")
	}
}

func TestCDFOutput(t *testing.T) {
	vals, probs := CDF([]sim.Time{30, 10, 20})
	if vals[0] != 10 || vals[2] != 30 {
		t.Fatal("CDF not sorted")
	}
	if probs[2] != 1 || math.Abs(probs[0]-1.0/3) > 1e-9 {
		t.Fatalf("probs %v", probs)
	}
}

func TestJainIndexKnownValues(t *testing.T) {
	if JainIndex([]float64{5, 5, 5, 5}) != 1 {
		t.Fatal("equal allocation should be 1")
	}
	got := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("single-user index %g, want 0.25", got)
	}
	if JainIndex(nil) != 1 || JainIndex([]float64{0, 0}) != 1 {
		t.Fatal("degenerate cases")
	}
}

// Property: Jain's index always lies in [1/n, 1].
func TestJainIndexBoundsProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		any := false
		for i, x := range raw {
			v[i] = float64(x)
			if x > 0 {
				any = true
			}
		}
		j := JainIndex(v)
		if !any {
			return j == 1
		}
		n := float64(len(v))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellTrackerSampling(t *testing.T) {
	tr := NewCellTracker(18e6, 2)
	tr.SamplePeriod = 10
	now := sim.Time(0)
	for i := 0; i < 36; i++ {
		now += sim.Millisecond
		tr.OnUE(0, 9000, true)
		tr.OnUE(1, 9000, true)
		tr.OnTTI(now, 18000)
	}
	// 35 TTIs at period 10 (first tick anchors the clock) -> 3 samples.
	if len(tr.SpectralEfficiencySamples()) != 3 {
		t.Fatalf("samples %d", len(tr.SpectralEfficiencySamples()))
	}
	// 18000 bits/ms over 18 MHz = 1 bit/s/Hz.
	for _, se := range tr.SpectralEfficiencySamples() {
		if math.Abs(se-1) > 1e-9 {
			t.Fatalf("SE sample %g, want 1", se)
		}
	}
	if tr.MeanFairness() != 1 {
		t.Fatalf("fairness %g", tr.MeanFairness())
	}
	if tr.TotalBits() != 36*18000 {
		t.Fatalf("total bits %d", tr.TotalBits())
	}
}

func TestCellTrackerFreeze(t *testing.T) {
	tr := NewCellTracker(18e6, 0)
	tr.SamplePeriod = 5
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		now += sim.Millisecond
		tr.OnTTI(now, 1000)
	}
	n := len(tr.SpectralEfficiencySamples())
	tr.Freeze()
	for i := 0; i < 10; i++ {
		now += sim.Millisecond
		tr.OnTTI(now, 1000)
	}
	if len(tr.SpectralEfficiencySamples()) != n {
		t.Fatal("tracker accumulated after freeze")
	}
}

func TestDelayTracker(t *testing.T) {
	var d DelayTracker
	d.Record(10*sim.Millisecond, true)
	d.Record(30*sim.Millisecond, false)
	if d.Mean() != 20*sim.Millisecond {
		t.Fatalf("mean %v", d.Mean())
	}
	if d.MeanShort() != 10*sim.Millisecond {
		t.Fatalf("short mean %v", d.MeanShort())
	}
	if d.Count() != 2 {
		t.Fatal("count")
	}
	var empty DelayTracker
	if empty.Mean() != 0 || empty.MeanShort() != 0 {
		t.Fatal("empty tracker")
	}
}

func TestFloatPercentile(t *testing.T) {
	v := []float64{3, 1, 2}
	if FloatPercentile(v, 0) != 1 || FloatPercentile(v, 1) != 3 || FloatPercentile(v, 0.5) != 2 {
		t.Fatal("float percentile wrong")
	}
	if FloatPercentile(nil, 0.5) != 0 {
		t.Fatal("empty input")
	}
	// Input must not be mutated.
	if v[0] != 3 {
		t.Fatal("input mutated")
	}
}

func TestMeanFloat(t *testing.T) {
	if MeanFloat([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if MeanFloat(nil) != 0 {
		t.Fatal("empty mean")
	}
}
