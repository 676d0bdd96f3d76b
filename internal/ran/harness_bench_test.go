package ran

import (
	"testing"

	"outran/internal/sim"
	"outran/internal/workload"
)

// BenchmarkHarnessBuild prices one set-up — NewCell, Spec.Generate and
// ScheduleSource, what the repository benchmark reports as setup_s — on
// the benchmark shapes where it is largest per cell: cell-traced (the
// mixed scenario on a 12 x 25 cell over a 40.5 s span), city-ops (the
// same cell over the deployment's 5.5 s span, built sixteen times a
// run) and flow-churn (~60 000 tiny flows to sort).
func BenchmarkHarnessBuild(b *testing.B) {
	mixed, _ := workload.Scenario("mixed", "lte", 0.7)
	shapes := []struct {
		name string
		h    Harness
	}{
		{"cell-traced", Harness{
			Config: DefaultLTEConfig().WithTopology(12, 25).WithWorkload(mixed),
			Warmup: 500 * sim.Millisecond, Window: 40 * sim.Second, Drain: 6 * sim.Second,
		}},
		{"city-ops", cityOpsShape()},
		{"flow-churn", Harness{
			Config: DefaultLTEConfig().WithTopology(12, 100).WithWorkload(workload.Spec{
				Load: 0.25,
				Classes: []workload.ClassSpec{
					{Kind: workload.ClassVoice, Share: 0.4},
					{Kind: workload.ClassIoT, Share: 0.1},
					{Kind: workload.ClassWeb, Dist: "mirage", Share: 0.5},
				},
			}),
			Warmup: 500 * sim.Millisecond, Window: 50 * sim.Second, Drain: 8 * sim.Second,
		}},
	}
	for _, s := range shapes {
		s := s
		b.Run(s.name, func(b *testing.B) {
			s.h.Config = s.h.Config.WithSeed(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.h.WorkloadSeed = uint64(i + 1)
				if _, err := s.h.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
