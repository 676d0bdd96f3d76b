package channel

import (
	"testing"

	"outran/internal/probetest"
	"outran/internal/rng"
	"outran/internal/sim"
)

// TestZeroAllocs pins every //outran:allocfree function in this
// package with an AllocsPerRun probe; probetest.Run fails when the
// probe registry and the annotations drift apart. The model has path
// loss and mobility on so the probes cover Mobility.DistanceM too;
// AllocsPerRun's warm-up call extends the leg list to the probed time.
func TestZeroAllocs(t *testing.T) {
	s := Pedestrian()
	s.PathLossExp = 3.5
	m := s.NewUEChannel(2.68e9, rng.New(1))
	const at = 90 * sim.Second
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*jakes).gainDB": func(t *testing.T) {
			j := &m.subbands[0]
			allocs := testing.AllocsPerRun(100, func() {
				sinkF = j.gainDB(at.Seconds())
			})
			if allocs != 0 {
				t.Errorf("gainDB: %.1f allocs/call, want 0", allocs)
			}
		},
		"trigKernel": func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				sinkF = cos(at.Seconds()) + sin(-at.Seconds()) + cos(2*trigMax) + sin(2*trigMax)
			})
			if allocs != 0 {
				t.Errorf("cos + sin: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Model).SubbandSINRs": func(t *testing.T) {
			buf := make([]float64, m.NumSubbands())
			allocs := testing.AllocsPerRun(100, func() {
				sinkF = m.SubbandSINRs(at, buf)[0]
			})
			if allocs != 0 {
				t.Errorf("SubbandSINRs: %.1f allocs/call, want 0", allocs)
			}
		},
		"(*Model).MeanSINROver": func(t *testing.T) {
			sbs := []int{0, 3, 4}
			allocs := testing.AllocsPerRun(100, func() {
				sinkF = m.MeanSINROver(at, sbs) + m.MeanSINROver(at, nil)
			})
			if allocs != 0 {
				t.Errorf("MeanSINROver: %.1f allocs/call, want 0", allocs)
			}
		},
	})
}
