package rng

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testCDF() *EmpiricalCDF {
	return MustCDF([]CDFPoint{
		{Value: 1000, Prob: 0.5},
		{Value: 10000, Prob: 0.9},
		{Value: 1000000, Prob: 1},
	})
}

func TestCDFValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		pts  []CDFPoint
		want string // a substring of the error; "" accepts any error
	}{
		{"too few", []CDFPoint{{Value: 1, Prob: 1}}, ""},
		{"non-positive value", []CDFPoint{{Value: 0, Prob: 0.5}, {Value: 2, Prob: 1}}, ""},
		{"decreasing values", []CDFPoint{{Value: 5, Prob: 0.5}, {Value: 2, Prob: 1}}, ""},
		{"decreasing probs", []CDFPoint{{Value: 1, Prob: 0.9}, {Value: 2, Prob: 0.5}}, ""},
		{"not ending at 1", []CDFPoint{{Value: 1, Prob: 0.5}, {Value: 2, Prob: 0.9}}, ""},
		{"prob above 1", []CDFPoint{{Value: 1, Prob: 0.5}, {Value: 2, Prob: 1.5}}, ""},
		// Every ordering check is false for NaN, so these used to pass
		// with a NaN or infinite mean.
		{"NaN prob", []CDFPoint{{Value: 1, Prob: 0.1}, {Value: 2, Prob: nan}, {Value: 3, Prob: 1}}, "point 1 "},
		{"NaN first prob", []CDFPoint{{Value: 1, Prob: nan}, {Value: 2, Prob: 1}}, "point 0 "},
		{"+Inf last value", []CDFPoint{{Value: 1, Prob: 0.1}, {Value: inf, Prob: 1}}, "point 1 "},
		{"NaN last value", []CDFPoint{{Value: 1, Prob: 0.1}, {Value: 2, Prob: 0.5}, {Value: nan, Prob: 1}}, "point 2 "},
		{"NaN middle value", []CDFPoint{{Value: 1, Prob: 0.1}, {Value: nan, Prob: 0.5}, {Value: 3, Prob: 1}}, "point 1 "},
		{"-Inf prob", []CDFPoint{{Value: 1, Prob: math.Inf(-1)}, {Value: 2, Prob: 1}}, "point 0 "},
	}
	for _, c := range cases {
		cdf, err := NewEmpiricalCDF(c.pts)
		if err == nil {
			t.Errorf("%s: no error (mean %g)", c.name, cdf.Mean())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

func TestMustCDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCDF did not panic on bad input")
		}
	}()
	MustCDF(nil)
}

func TestQuantileMonotonic(t *testing.T) {
	c := testCDF()
	prev := 0.0
	for u := 0.0; u <= 1.0; u += 0.001 {
		v := c.Quantile(u)
		if v < prev {
			t.Fatalf("quantile not monotonic at %g: %g < %g", u, v, prev)
		}
		prev = v
	}
}

func TestQuantileKnots(t *testing.T) {
	c := testCDF()
	if got := c.Quantile(0.5); got != 1000 {
		t.Fatalf("Quantile(0.5)=%g, want 1000", got)
	}
	if got := c.Quantile(0.9); math.Abs(got-10000) > 1 {
		t.Fatalf("Quantile(0.9)=%g, want 10000", got)
	}
	if got := c.Quantile(1); math.Abs(got-1000000) > 1 {
		t.Fatalf("Quantile(1)=%g", got)
	}
	if got := c.Quantile(-1); got != 1000 {
		t.Fatalf("clamped Quantile(-1)=%g, want min", got)
	}
}

func TestProbQuantileRoundTrip(t *testing.T) {
	c := testCDF()
	for u := 0.5; u < 1.0; u += 0.01 {
		v := c.Quantile(u)
		back := c.Prob(v)
		if math.Abs(back-u) > 1e-6 {
			t.Fatalf("Prob(Quantile(%g)) = %g", u, back)
		}
	}
}

func TestProbBounds(t *testing.T) {
	c := testCDF()
	if c.Prob(1) != 0.5 {
		t.Fatalf("Prob below support = %g, want first knot prob", c.Prob(1))
	}
	if c.Prob(2e6) != 1 {
		t.Fatal("Prob above support != 1")
	}
	if p := c.Prob(math.NaN()); !math.IsNaN(p) {
		t.Fatalf("Prob(NaN) = %g, want NaN", p)
	}
}

func TestSampleWithinSupport(t *testing.T) {
	c := testCDF()
	r := New(23)
	for i := 0; i < 10000; i++ {
		v := c.Sample(r)
		if v < c.Min() || v > c.Max() {
			t.Fatalf("sample %g outside [%g, %g]", v, c.Min(), c.Max())
		}
	}
}

func TestEmpiricalMeanMatchesSampleMean(t *testing.T) {
	c := testCDF()
	r := New(29)
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		sum += c.Sample(r)
	}
	sampleMean := sum / n
	if math.Abs(sampleMean-c.Mean())/c.Mean() > 0.03 {
		t.Fatalf("analytic mean %g vs sample mean %g", c.Mean(), sampleMean)
	}
}

func TestHeavyTailShare(t *testing.T) {
	// 90% of flows < 10 KB, but the top decile must carry most bytes.
	c := testCDF()
	r := New(31)
	var smallBytes, bigBytes float64
	for i := 0; i < 100000; i++ {
		v := c.Sample(r)
		if v <= 10000 {
			smallBytes += v
		} else {
			bigBytes += v
		}
	}
	if bigBytes < 2*smallBytes {
		t.Fatalf("tail carries too little volume: big=%g small=%g", bigBytes, smallBytes)
	}
}

// Property: quantile output is always inside the support and monotone
// in u for random valid CDFs.
func TestQuantileProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		pts := []CDFPoint{}
		v := 1.0 + r.Float64()*10
		p := 0.1 + 0.3*r.Float64()
		for i := 0; i < 4; i++ {
			pts = append(pts, CDFPoint{Value: v, Prob: p})
			v *= 2 + r.Float64()*10
			p += (1 - p) * (0.3 + 0.4*r.Float64())
		}
		pts = append(pts, CDFPoint{Value: v, Prob: 1})
		c, err := NewEmpiricalCDF(pts)
		if err != nil {
			return false
		}
		prev := 0.0
		for u := 0.0; u <= 1.0; u += 0.05 {
			q := c.Quantile(u)
			if q < c.Min() || q > c.Max() || q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
