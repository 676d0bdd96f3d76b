package rng_test

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"outran/internal/rng"
	"outran/internal/workload"
)

// refQuantile, refProb and refMean are a frozen copy of EmpiricalCDF's
// interpolation as it was when every call took its knot logarithms
// itself, less refProb's panic on NaN: it answers NaN. They are the
// oracle the stored log table must match bit for bit; do not "tidy"
// them to share code with cdf.go.
func refQuantile(pts []rng.CDFPoint, u float64) float64 {
	if u <= pts[0].Prob {
		return pts[0].Value
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	if i >= len(pts) {
		return pts[len(pts)-1].Value
	}
	lo, hi := pts[i-1], pts[i]
	if hi.Prob == lo.Prob {
		return hi.Value
	}
	frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
	return math.Exp(math.Log(lo.Value) + frac*(math.Log(hi.Value)-math.Log(lo.Value)))
}

func refProb(pts []rng.CDFPoint, v float64) float64 {
	if math.IsNaN(v) {
		return math.NaN()
	}
	if v <= pts[0].Value {
		return pts[0].Prob
	}
	if v >= pts[len(pts)-1].Value {
		return 1
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Value >= v })
	lo, hi := pts[i-1], pts[i]
	frac := (math.Log(v) - math.Log(lo.Value)) / (math.Log(hi.Value) - math.Log(lo.Value))
	return lo.Prob + frac*(hi.Prob-lo.Prob)
}

func refMean(pts []rng.CDFPoint) float64 {
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		sum += refQuantile(pts, u)
	}
	return sum / n
}

// checkQuantile compares Quantile(u), whose argument is clamped to
// [0, 1], with the frozen formula.
func checkQuantile(t *testing.T, c *rng.EmpiricalCDF, pts []rng.CDFPoint, u float64) {
	t.Helper()
	ref := u
	if ref < 0 {
		ref = 0
	}
	if ref > 1 {
		ref = 1
	}
	got, want := c.Quantile(u), refQuantile(pts, ref)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Quantile(%v) = %v (%#x), frozen formula %v (%#x)", u, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func checkProb(t *testing.T, c *rng.EmpiricalCDF, pts []rng.CDFPoint, v float64) {
	t.Helper()
	got, want := c.Prob(v), refProb(pts, v)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Prob(%v) = %v (%#x), frozen formula %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkKnots runs both directions at every knot and at the doubles
// either side of it.
func checkKnots(t *testing.T, c *rng.EmpiricalCDF, pts []rng.CDFPoint) {
	t.Helper()
	for _, p := range pts {
		for _, u := range []float64{math.Nextafter(p.Prob, math.Inf(-1)), p.Prob, math.Nextafter(p.Prob, math.Inf(1))} {
			checkQuantile(t, c, pts, u)
		}
		for _, v := range []float64{math.Nextafter(p.Value, 0), p.Value, math.Nextafter(p.Value, math.Inf(1))} {
			checkProb(t, c, pts, v)
		}
	}
	checkQuantile(t, c, pts, 0)
	checkQuantile(t, c, pts, 1)
}

// TestCDFMatchesFrozenFormula holds the three flow-size presets to the
// frozen formulas bit for bit: a dense u grid, every knot and its
// neighbours, both ends, a log-spaced grid of values, and the mean.
func TestCDFMatchesFrozenFormula(t *testing.T) {
	for _, name := range []string{"lte", "mirage", "websearch"} {
		t.Run(name, func(t *testing.T) {
			c, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no preset %q", name)
			}
			pts := rng.Knots(c)
			checkKnots(t, c, pts)
			const n = 200000
			for i := 0; i <= n; i++ {
				checkQuantile(t, c, pts, float64(i)/n)
			}
			lo, hi := math.Log(c.Min()/2), math.Log(c.Max()*2)
			for i := 0; i <= n; i++ {
				checkProb(t, c, pts, math.Exp(lo+(hi-lo)*float64(i)/n))
			}
			if got, want := c.Mean(), refMean(pts); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Mean() = %v, frozen formula %v", got, want)
			}
		})
	}
}

// encodeKnots is FuzzEmpiricalCDF's input format: 16 bytes per knot,
// the value's and then the probability's float64 bits, little-endian.
func encodeKnots(pts []rng.CDFPoint) []byte {
	b := make([]byte, 0, 16*len(pts))
	for _, p := range pts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Value))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Prob))
	}
	return b
}

// FuzzEmpiricalCDF lets the fuzzer pick the knots' bit patterns and
// one probe in each direction. A CDF with a non-finite knot must be
// rejected; an accepted one must answer Quantile and Prob, at the
// probes and at every knot, with the frozen formulas' bits.
func FuzzEmpiricalCDF(f *testing.F) {
	for _, name := range []string{"lte", "mirage", "websearch"} {
		c, _ := workload.ByName(name)
		f.Add(encodeKnots(rng.Knots(c)), 0.5, 3000.0)
	}
	f.Add(encodeKnots([]rng.CDFPoint{{Value: 1, Prob: 0.1}, {Value: 2, Prob: math.NaN()}, {Value: 3, Prob: 1}}), 0.3, 1.5)
	f.Add(encodeKnots([]rng.CDFPoint{{Value: 1, Prob: 0.1}, {Value: math.Inf(1), Prob: 1}}), 0.9, 7.0)
	f.Add(encodeKnots([]rng.CDFPoint{{Value: 1e-300, Prob: 0}, {Value: 1e300, Prob: 0}, {Value: 1e301, Prob: 1}}), 0.0, 1e200)
	f.Add(encodeKnots([]rng.CDFPoint{{Value: 1, Prob: 0.5}, {Value: 10, Prob: 1}}), math.NaN(), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, u, v float64) {
		const maxKnots = 64
		var pts []rng.CDFPoint
		finite := true
		for len(data) >= 16 && len(pts) < maxKnots {
			p := rng.CDFPoint{
				Value: math.Float64frombits(binary.LittleEndian.Uint64(data)),
				Prob:  math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			}
			for _, x := range []float64{p.Value, p.Prob} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					finite = false
				}
			}
			pts = append(pts, p)
			data = data[16:]
		}
		c, err := rng.NewEmpiricalCDF(pts)
		if err != nil {
			return
		}
		if !finite {
			t.Fatalf("accepted non-finite knots %v", pts)
		}
		checkKnots(t, c, pts)
		checkQuantile(t, c, pts, u)
		checkProb(t, c, pts, v)
	})
}
