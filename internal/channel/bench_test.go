package channel

import (
	"math"
	"testing"

	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

var (
	sinkCQI phy.CQI
	sinkF   float64
)

// benchInstants draws the times the channel benchmarks sample: 64 k
// instants (a power of two, so indexing is a mask, not a division)
// spread over ten simulated minutes. Inside a run consecutive
// evaluations belong to different UEs, subbands and oscillators, so
// their trig arguments are unrelated; stepping one model by 1 ms
// instead leaves each oscillator in one octant for many iterations,
// which a branch predictor learns and a run never offers.
func benchInstants() []sim.Time {
	r := rng.New(7)
	ts := make([]sim.Time, 1<<16)
	for i := range ts {
		ts[i] = sim.Time(r.Float64() * float64(600*sim.Second))
	}
	return ts
}

// BenchmarkCQI measures the per-subband channel evaluation that runs
// for every UE on every CQI reporting period.
func BenchmarkCQI(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	ts := benchInstants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCQI = m.CQI(ts[i&(len(ts)-1)], i%m.NumSubbands())
	}
}

// BenchmarkSubbandSINRs measures the batch evaluation of one UE's
// whole CQI report; divide by the 13 subbands to compare with
// BenchmarkCQI.
func BenchmarkSubbandSINRs(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	buf := make([]float64, m.NumSubbands())
	ts := benchInstants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = m.SubbandSINRs(ts[i&(len(ts)-1)], buf)[0]
	}
}

func BenchmarkSINR(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(2))
	ts := benchInstants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = m.SINRdB(ts[i&(len(ts)-1)], 0)
	}
}

// BenchmarkGainDB measures one Jakes evaluation, 8 cos + 8 sin, on
// each trig path: the four-lane kernel where the CPU has it, and the
// scalar loop it falls back to.
func BenchmarkGainDB(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	j := &m.subbands[0]
	ts := benchInstants()
	for _, path := range trigPaths {
		b.Run(path.name, func(b *testing.B) {
			setTrigPath(b, path.avx2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkF = j.gainDB(ts[i&(len(ts)-1)].Seconds())
			}
		})
	}
}

// benchTrigArgs draws 1 M arguments over the range the model produces
// (trigMaxModelArg), far more than a branch predictor can learn.
func benchTrigArgs() []float64 {
	r := rng.New(9)
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = (2*r.Float64() - 1) * trigMaxModelArg
	}
	return xs
}

// BenchmarkMathTrig and BenchmarkKernelTrig price one cos + sin pair
// over the same unpredictable arguments, stdlib against the kernel.
func BenchmarkMathTrig(b *testing.B) {
	xs := benchTrigArgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i&(len(xs)-1)]
		sinkF = math.Cos(x) + math.Sin(x)
	}
}

func BenchmarkKernelTrig(b *testing.B) {
	xs := benchTrigArgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i&(len(xs)-1)]
		sinkF = cos(x) + sin(x)
	}
}

func BenchmarkMobilityPosition(b *testing.B) {
	m := NewMobility(200, 1.4, rng.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := m.Position(sim.Time(i) * sim.Millisecond)
		sinkF = x + y
	}
}
