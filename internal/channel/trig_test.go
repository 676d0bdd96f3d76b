package channel

import (
	"math"
	"testing"

	"outran/internal/rng"
)

// sameBits reports whether got is the double want is; any NaN matches
// any NaN.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// checkTrig compares the kernel with math at x.
func checkTrig(t *testing.T, x float64) {
	if got, want := cos(x), math.Cos(x); !sameBits(got, want) {
		t.Errorf("cos(%v [%#x]) = %v [%#x], math.Cos gives %v [%#x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := sin(x), math.Sin(x); !sameBits(got, want) {
		t.Errorf("sin(%v [%#x]) = %v [%#x], math.Sin gives %v [%#x]",
			x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// trigEdges lists the arguments where the kernel's integer choices
// could part from math's branches; each is tried at both signs, so
// sin(-0) = -0 is among them.
func trigEdges() []float64 {
	edges := []float64{
		0,
		math.SmallestNonzeroFloat64,              // smallest subnormal
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.Float64frombits(0x0010000000000000), // smallest normal
		1e-300, 1e-20, 1, math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi,
		math.Nextafter(trigMax, 0), trigMax, math.Nextafter(trigMax, math.Inf(1)),
		1e300, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	// The largest multiples of π/4 the kernel itself reduces.
	top := math.Floor(trigMax / (math.Pi / 4))
	for k := top; k > top-16; k-- {
		edges = append(edges, k*(math.Pi/4))
	}
	return edges
}

// trigMaxModelArg bounds |omega[n]*ts + phase| for the fastest preset
// (9 m/s) on the 28 GHz carrier after an hour of simulated time.
var trigMaxModelArg = 2*math.Pi*(9/speedOfLight*28e9)*3600 + 2*math.Pi

// drawTrigArg draws an argument as the model produces them: signed, up
// to trigMaxModelArg; every fourth draw is log-uniform instead, so
// small magnitudes are covered too.
func drawTrigArg(r *rng.Source, i int) float64 {
	x := (2*r.Float64() - 1) * trigMaxModelArg
	if i%4 == 3 {
		x = math.Copysign(r.LogUniform(1e-12, trigMax), x)
	}
	return x
}

// TestTrigKernelMatchesMath is the kernel's oracle: cos and sin return
// math.Cos's and math.Sin's bits. On a target that fuses multiply-adds
// (arm64, ppc64, s390x, GOAMD64=v3) this is the test to run before
// trusting any golden there.
func TestTrigKernelMatchesMath(t *testing.T) {
	for _, x := range trigEdges() {
		checkTrig(t, x)
		checkTrig(t, -x)
	}

	// Every octant boundary and its two neighbours.
	for k := 0; k < 100_000 && !t.Failed(); k++ {
		x := float64(k) * (math.Pi / 4)
		for _, v := range [...]float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
			checkTrig(t, v)
			checkTrig(t, -v)
		}
	}

	// Arguments as the model produces them.
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	r := rng.New(20)
	for i := 0; i < n && !t.Failed(); i++ {
		checkTrig(t, drawTrigArg(r, i))
	}
}

// FuzzTrigKernel lets the fuzzer pick the argument's bit pattern.
func FuzzTrigKernel(f *testing.F) {
	for _, x := range trigEdges() {
		f.Add(math.Float64bits(x))
		f.Add(math.Float64bits(-x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkTrig(t, math.Float64frombits(bits))
	})
}
