package experiments

import (
	"fmt"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/workload"
)

func init() { register("warmstart", WarmStart) }

// WarmStart is the capacity-style probe sweep built on the snapshot
// subsystem: the cell runs its warmup transient ONCE, snapshots, and
// every probe point forks from that one post-warmup image instead of
// re-paying the warmup. Each fork injects a probe burst of short flows
// into the identical warmed-up cell and measures how the burst's FCT
// degrades as the burst grows — the knee locates the cell's residual
// capacity under the steady background load. Because restoration is
// byte-exact, every probe point sees precisely the same queue state,
// MLFQ priorities, HARQ processes and rng positions at fork time; the
// probe burst is the only difference between the points.
func WarmStart(opt Options) ([]Table, error) {
	opt = opt.withDefaults()
	// One warmed-up cell, snapshotted at the end of the transient. The
	// workload spec lives on the config so the probe forks rebuild an
	// identical cell: snapshot restore demands a matching fingerprint.
	cfg, spec := baseLTE(opt, ran.SchedOutRAN), workload.PoissonSpec("lte", 0.6)
	win, err := window(cfg, spec, opt.Flows)
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart: %w", err)
	}
	h := harness(cfg, spec, opt, win)
	cfg = h.Config
	base, err := h.Build()
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart: %w", err)
	}
	base.Run(warmup)
	var b snapshot.Builder
	if err := base.SnapshotTo(&b); err != nil {
		return nil, fmt.Errorf("experiments: warmstart snapshot: %w", err)
	}
	img := b.Bytes()
	total := h.Total()

	bursts := []int{0, 2, 4, 8, 16, 32}
	const probeBytes = 64 << 10 // short-class probes: the paper's FCT focus
	type probeResult struct {
		fcts []sim.Time
		p95  sim.Time // background short-flow p95 under the burst
	}
	results := make([]probeResult, len(bursts))
	err = deploy.ForEach(len(bursts), opt.Workers, func(i int) error {
		a, err := snapshot.Open(img)
		if err != nil {
			return err
		}
		c, err := ran.NewCell(cfg)
		if err != nil {
			return err
		}
		if err := c.RestoreSnapshot(a); err != nil {
			return err
		}
		// The probe burst: injected at fork time, spread over the UEs,
		// kept out of the background FCT recorder.
		fcts := make([]sim.Time, 0, bursts[i])
		for j := 0; j < bursts[i]; j++ {
			err := c.StartFlow(j%cfg.NumUEs, probeBytes, ran.FlowOptions{
				SkipRecord: true,
				OnComplete: func(fct sim.Time) { fcts = append(fcts, fct) },
			})
			if err != nil {
				return err
			}
		}
		c.Run(total)
		results[i] = probeResult{fcts: fcts, p95: c.FCT.ByClass(metrics.Short).P95}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: warmstart probe %w", err)
	}

	tbl := Table{
		Title:  "Warm-started capacity probe (OutRAN, forked from one post-warmup snapshot)",
		Header: []string{"burst_flows", "probe_done", "probe_mean_ms", "probe_max_ms", "bg_short_p95_ms"},
	}
	for i, burst := range bursts {
		r := results[i]
		var maxFCT sim.Time
		for _, f := range r.fcts {
			maxFCT = max(maxFCT, f)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", burst),
			fmt.Sprintf("%d", len(r.fcts)),
			ms(meanT(r.fcts)),
			ms(maxFCT),
			ms(r.p95),
		})
	}
	return []Table{tbl}, nil
}
