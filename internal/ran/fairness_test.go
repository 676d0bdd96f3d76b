package ran

import (
	"math"
	"testing"

	"outran/internal/sim"
	"outran/internal/workload"
)

// TestFairnessBlockIsTheSampleBlock: every fairness sample (eq. 3) is
// taken over the same TTIs as its spectral-efficiency sample, whatever
// the warmup — the bits behind a block's Jain index sum to the bits its
// SE sample counted. When the cell counted its own block from t = 0, a
// run without warmup took Jain over one TTI's grants and a warmup off
// the 50-TTI grid over 1 to 49; a warmup on the grid (500 ms) lined up.
func TestFairnessBlockIsTheSampleBlock(t *testing.T) {
	for _, warmup := range []sim.Time{0, 1234 * sim.Millisecond, 500 * sim.Millisecond} {
		h := Harness{
			Config: DefaultLTEConfig().WithTopology(12, 25).
				ForScheduler(SchedOutRAN).
				WithWorkload(workload.PoissonSpec("lte", 0.6)),
			Warmup: warmup, Window: 3 * sim.Second, WorkloadSeed: 1,
		}
		cell, err := h.Run()
		if err != nil {
			t.Fatal(err)
		}
		tr := cell.Tracker
		se := tr.SpectralEfficiencySamples()
		sums, _, _ := tr.FairnessMoments()
		if len(se) < 50 || len(sums) != len(se) {
			t.Fatalf("warmup %v: %d SE samples, %d fairness samples", warmup, len(se), len(sums))
		}
		block := float64(tr.SamplePeriod) * cell.Config().Grid.TTI().Seconds()
		for k := range se {
			if bits := se[k] * block * tr.BandwidthHz; math.Abs(sums[k]-bits) > 1e-9*bits {
				t.Fatalf("warmup %v, sample %d: Jain over %.0f bits, the SE block served %.0f",
					warmup, k, sums[k], bits)
			}
		}
	}
}
