package core

import (
	"testing"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

// benchUsers builds a deterministic user population reporting nsb
// subbands each.
func benchUsers(n, nsb int) []*mac.User {
	users := make([]*mac.User, n)
	for i := range users {
		cqis := make([]phy.CQI, nsb)
		for j := range cqis {
			cqis[j] = phy.CQI(1 + (i*7+j*3)%15)
		}
		perPrio := make([]int, 4)
		perPrio[i%4] = 1000
		users[i] = &mac.User{
			ID:         mac.UserID(i),
			SubbandCQI: cqis,
			AvgTputBps: float64(1e5 + i*31337),
			Buffer:     mac.BufferStatus{TotalBytes: 1500, PerPriority: perPrio},
		}
	}
	return users
}

// BenchmarkInterUserAllocate* quantify the cost of OutRAN's second
// pass relative to plain PF (mac's BenchmarkPFAllocate* at the same
// shapes): the paper's claim is it stays within the complexity of the
// legacy scheduler (§4.3, Fig 14).
func benchInterUser(b *testing.B, users []*mac.User, grid phy.Grid) {
	b.Helper()
	s, err := NewInterUser(mac.PFMetric, "PF", 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Allocate(sim.Time(i)*sim.Millisecond, users, grid)
	}
}

func BenchmarkInterUserAllocate20x50(b *testing.B) {
	benchInterUser(b, benchUsers(20, 13), phy.Grid{Numerology: phy.Mu0, NumRB: 50, CarrierHz: 2.68e9})
}

func BenchmarkInterUserAllocate100x100(b *testing.B) {
	benchInterUser(b, benchUsers(100, 13), phy.Grid{Numerology: phy.Mu0, NumRB: 100, CarrierHz: 2.68e9})
}

// The paper's 5G point: 40 UEs on 273 RBs in 9 uneven subbands.
func BenchmarkInterUserAllocate40x273(b *testing.B) {
	benchInterUser(b, benchUsers(40, 9), phy.NR100MHz(phy.Mu1))
}

func BenchmarkMLFQPriorityFor(b *testing.B) {
	m := DefaultMLFQ()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.PriorityFor(int64(i) * 997 % (4 << 20))
	}
}

func BenchmarkSolveThresholds(b *testing.B) {
	dist := benchDist()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveThresholds(4, dist)
	}
}

// benchDist is a local flow-size distribution for the solver bench
// (avoids importing workload from core's tests).
func benchDist() *rng.EmpiricalCDF {
	return rng.MustCDF([]rng.CDFPoint{
		{Value: 1000, Prob: 0.4},
		{Value: 10000, Prob: 0.8},
		{Value: 100000, Prob: 0.95},
		{Value: 5000000, Prob: 1},
	})
}
