package mac

import (
	"testing"

	"outran/internal/phy"
	"outran/internal/sim"
)

// benchUsers builds a deterministic user population reporting nsb
// subbands each.
func benchUsers(n, nsb int) []*User {
	users := make([]*User, n)
	for i := range users {
		cqis := make([]phy.CQI, nsb)
		for j := range cqis {
			cqis[j] = phy.CQI(1 + (i*7+j*3)%15)
		}
		perPrio := make([]int, 4)
		perPrio[i%4] = 1000
		users[i] = &User{
			ID:         UserID(i),
			SubbandCQI: cqis,
			AvgTputBps: float64(1e5 + i*31337),
			Buffer:     BufferStatus{TotalBytes: 1500, PerPriority: perPrio},
		}
	}
	return users
}

func lteGrid(rbs int) phy.Grid {
	return phy.Grid{Numerology: phy.Mu0, NumRB: rbs, CarrierHz: 2.68e9}
}

func benchAllocate(b *testing.B, s Scheduler, users []*User, grid phy.Grid) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Allocate(sim.Time(i)*sim.Millisecond, users, grid)
	}
}

func BenchmarkPFAllocate20x50(b *testing.B) {
	benchAllocate(b, NewPF(), benchUsers(20, 13), lteGrid(50))
}

func BenchmarkPFAllocate100x100(b *testing.B) {
	benchAllocate(b, NewPF(), benchUsers(100, 13), lteGrid(100))
}

// The paper's 5G point: 40 UEs on 273 RBs in 9 uneven subbands.
func BenchmarkPFAllocate40x273(b *testing.B) {
	benchAllocate(b, NewPF(), benchUsers(40, 9), phy.NR100MHz(phy.Mu1))
}

func BenchmarkMTAllocate20x50(b *testing.B) {
	benchAllocate(b, NewMT(), benchUsers(20, 13), lteGrid(50))
}

func BenchmarkSRJFAllocate20x50(b *testing.B) {
	benchAllocate(b, NewSRJF(), benchUsers(20, 13), lteGrid(50))
}

func BenchmarkPSSAllocate20x50(b *testing.B) {
	benchAllocate(b, NewPSS(), benchUsers(20, 13), lteGrid(50))
}

func BenchmarkCQAAllocate20x50(b *testing.B) {
	benchAllocate(b, NewCQA(), benchUsers(20, 13), lteGrid(50))
}
