package channel

import (
	"testing"

	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

var sinkCQI phy.CQI

// BenchmarkCQI measures the per-subband channel evaluation that runs
// for every UE on every CQI reporting period.
func BenchmarkCQI(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCQI = m.CQI(sim.Time(i)*sim.Millisecond, i%m.NumSubbands())
	}
}

// BenchmarkSubbandSINRs measures the batch evaluation of one UE's
// whole CQI report; divide by the 13 subbands to compare with
// BenchmarkCQI.
func BenchmarkSubbandSINRs(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(1))
	buf := make([]float64, m.NumSubbands())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = m.SubbandSINRs(sim.Time(i)*sim.Millisecond, buf)[0]
	}
}

var sinkF float64

func BenchmarkSINR(b *testing.B) {
	m := Pedestrian().NewUEChannel(2.68e9, rng.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkF = m.SINRdB(sim.Time(i)*sim.Millisecond, 0)
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
