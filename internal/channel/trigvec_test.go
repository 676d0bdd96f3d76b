package channel

import (
	"math"
	"testing"

	"outran/internal/rng"
)

// cpuAVX2 remembers what the CPU offers while a test flips useAVX2.
var cpuAVX2 = useAVX2

// setTrigPath makes gainDB take the vector kernel (or the scalar loop)
// until the test ends, skipping when the CPU has no vector kernel.
func setTrigPath(t testing.TB, avx2 bool) {
	if avx2 && !cpuAVX2 {
		t.Skip("no AVX2 kernel on this CPU")
	}
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = cpuAVX2 })
}

// trigPaths names gainDB's two trig paths for tests that run on both.
var trigPaths = [...]struct {
	name string
	avx2 bool
}{{"scalar", false}, {"avx2", true}}

// trigLanes is one call's sixteen arguments: the cosines', then the
// sines', in out's order.
type trigLanes = [2 * numOscillators]float64

// drawTrigLanes fills every lane with a drawn argument.
func drawTrigLanes(r *rng.Source) (xs trigLanes) {
	for l := range xs {
		xs[l] = drawTrigArg(r, l)
	}
	return xs
}

// checkTrigVec hands the vector routine xs as its sixteen arguments and
// compares every output with math; the routine must decline the call
// exactly when some lane is outside trigKernel's range. With ts = 1
// and every omega -0 the routine's x = omega*ts + phase is phase
// itself, -0 included.
func checkTrigVec(t *testing.T, xs *trigLanes) {
	t.Helper()
	j := jakes{}
	for n := range j.omega {
		j.omega[n] = math.Copysign(0, -1)
	}
	copy(j.phasesI[:], xs[:numOscillators])
	copy(j.phasesQ[:], xs[numOscillators:])
	inRange := true
	for _, x := range xs {
		inRange = inRange && math.Abs(x) < trigMax // trigKernel's own check
	}
	var out trigLanes
	if ok := trigJakesAVX2(1, &j, &out); ok != inRange {
		t.Fatalf("trigJakesAVX2(%v) = %v, want %v", *xs, ok, inRange)
	}
	if !inRange {
		return
	}
	for l, x := range xs {
		name, want := "cos", math.Cos(x)
		if l >= numOscillators {
			name, want = "sin", math.Sin(x)
		}
		if got := out[l]; !sameBits(got, want) {
			t.Errorf("lane %d: %s(%v [%#x]) = %v [%#x], math gives %v [%#x]", l, name,
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestTrigVecMatchesMath is the vector kernel's oracle: all sixteen
// lanes return math.Cos's and math.Sin's bits, and a call with a lane
// the kernel cannot reduce is declined whole.
func TestTrigVecMatchesMath(t *testing.T) {
	setTrigPath(t, true)
	r := rng.New(23)

	// Every edge at both signs in every lane, the other lanes ordinary.
	for _, e := range trigEdges() {
		for _, x := range [...]float64{e, -e} {
			for l := 0; l < 2*numOscillators; l++ {
				xs := drawTrigLanes(r)
				xs[l] = x
				checkTrigVec(t, &xs)
			}
		}
	}

	// Every octant boundary and its two neighbours, sixteen to a call.
	var xs trigLanes
	l := 0
	for k := 0; k < 100_000 && !t.Failed(); k++ {
		x := float64(k) * (math.Pi / 4)
		for _, v := range [...]float64{math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1))} {
			for _, s := range [...]float64{v, -v} {
				xs[l] = s
				if l++; l == len(xs) {
					checkTrigVec(t, &xs)
					l = 0
				}
			}
		}
	}

	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	// TestTrigKernelMatchesMath's draws; the lanes rotate so that each
	// sees the log-uniform ones.
	for i := 0; i < n && !t.Failed(); i += len(xs) {
		for l := range xs {
			xs[(l+i/len(xs))%len(xs)] = drawTrigArg(r, i+l)
		}
		checkTrigVec(t, &xs)
	}
}

// FuzzTrigVec lets the fuzzer pick one lane and its bit pattern; the
// other lanes hold drawn arguments.
func FuzzTrigVec(f *testing.F) {
	for i, x := range trigEdges() {
		f.Add(math.Float64bits(x), uint8(i))
		f.Add(math.Float64bits(-x), uint8(i+numOscillators))
	}
	setTrigPath(f, true)
	f.Fuzz(func(t *testing.T, bits uint64, lane uint8) {
		xs := drawTrigLanes(rng.New(bits))
		xs[int(lane)%len(xs)] = math.Float64frombits(bits)
		checkTrigVec(t, &xs)
	})
}

// TestTrigPathsAgree runs the whole-model oracle on each of gainDB's
// two paths and then compares the paths directly, times where the
// vector kernel declines the call included.
func TestTrigPathsAgree(t *testing.T) {
	m := Urban28GHz().NewUEChannel(28e9, rng.New(5))
	r := rng.New(6)
	times := []float64{0, 1e-9, 3600, 1e6, 1e9, 1e300, math.Inf(1), math.NaN()}
	for i := 0; i < 100_000; i++ {
		times = append(times, r.Float64()*3600)
	}
	sweep := func() []float64 {
		out := make([]float64, 0, len(times))
		for i, ts := range times {
			out = append(out, m.subbands[i%len(m.subbands)].gainDB(ts))
		}
		return out
	}
	var scalar []float64
	for _, path := range trigPaths {
		t.Run(path.name, func(t *testing.T) {
			setTrigPath(t, path.avx2)
			checkBitIdenticalToPerSubbandFormula(t)
			got := sweep()
			if scalar == nil {
				scalar = got
			}
			for i := range got {
				if !sameBits(got[i], scalar[i]) {
					t.Fatalf("gainDB(%v) = %v [%#x], the scalar path gives %v [%#x]",
						times[i], got[i], math.Float64bits(got[i]), scalar[i], math.Float64bits(scalar[i]))
				}
			}
		})
	}
}
