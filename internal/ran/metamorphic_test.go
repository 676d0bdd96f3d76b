package ran

import (
	"fmt"
	"slices"
	"testing"

	"outran/internal/metrics"
	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/workload"
)

// TestSchedulerIdentities is the metamorphic gate on the allocation
// rule: three pairs of cells that must finish every flow at the same
// instant, over UM and AM, an LTE and an NR cell, and three seeds.
//
//   - OutRAN at ε = 0 with thresholds no flow ever reaches is PF (§4.3):
//     every flow stays at the top MLFQ level and nobody is re-selected.
//     The cells still differ in everything else OutRAN switches on — PDCP
//     classification, per-UE MLFQ queues, delayed SN numbering, segment
//     promotion — so a scheduler that fills a run PF leaves idle, or the
//     reverse, shows here.
//   - PSS with no QoS traffic is PF: its priority set is empty.
//   - StrictMLFQ is OutRAN at ε = 1.
func TestSchedulerIdentities(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"lte", DefaultLTEConfig().WithTopology(40, 50).WithWorkload(workload.PoissonSpec("lte", 0.7))},
		{"nr", Default5GConfig(phy.Mu1).WithTopology(20, 51).WithWorkload(workload.PoissonSpec("mirage", 0.7))},
	}
	run := func(t *testing.T, cfg Config) []metrics.FCTSample {
		t.Helper()
		cell, err := Harness{
			Config: cfg,
			Warmup: 500 * sim.Millisecond, Window: 8 * sim.Second, Drain: 4 * sim.Second,
			Setup: installChecker,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, cell)
		return cell.FCT.Samples()
	}
	same := func(t *testing.T, name string, got, want []metrics.FCTSample) {
		t.Helper()
		if len(want) == 0 {
			t.Fatalf("%s: the reference finished no flow", name)
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: %d flows against %d; first difference at sample %d", name, len(got), len(want), i)
		}
	}
	for _, shape := range shapes {
		for _, mode := range []RLCMode{UM, AM} {
			for seed := uint64(1); seed <= 3; seed++ {
				base := shape.cfg.WithSeed(seed)
				base.RLC = mode
				t.Run(fmt.Sprintf("%s/%s/seed%d", shape.name, mode, seed), func(t *testing.T) {
					t.Parallel()
					outran := func(eps float64) Config {
						c := base.ForScheduler(SchedOutRAN)
						c.OutRAN.Epsilon = eps
						return c
					}
					neverDemote := outran(0)
					neverDemote.OutRAN.Thresholds = []int64{1 << 50, 1 << 51, 1 << 52}
					noQoS := base.ForScheduler(SchedPSS)
					noQoS.QoSShortFlows = false

					pf := run(t, base.ForScheduler(SchedPF))
					same(t, "OutRAN at ε = 0 against PF", run(t, neverDemote), pf)
					same(t, "PSS without QoS traffic against PF", run(t, noQoS), pf)
					same(t, "StrictMLFQ against OutRAN at ε = 1",
						run(t, base.ForScheduler(SchedStrictMLFQ)), run(t, outran(1)))
				})
			}
		}
	}
}
