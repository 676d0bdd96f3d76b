package ran

import (
	"bytes"
	"math"
	"testing"

	"outran/internal/obs"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// runTraced runs a small scenario with the given sink attached and
// returns the cell for post-run inspection. Warmup is cut with a
// tracker reset and the measurement window closed with a freeze, so
// the trace carries both window-boundary events.
func runTraced(t *testing.T, cfg Config, sink obs.Sink) *Cell {
	t.Helper()
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell.SetTracer(obs.NewTracer(sink))
	const dur = 1200 * sim.Millisecond
	src, err := workload.Poisson(workload.PoissonConfig{
		Dist:            workload.LTECellular(),
		NumUEs:          cfg.NumUEs,
		Load:            0.7,
		CellCapacityBps: cell.EffectiveCapacityBps(),
		Duration:        dur,
	}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	cell.ScheduleSource(src, 0, dur)
	cell.Eng.At(200*sim.Millisecond, cell.Tracker.Reset)
	cell.Eng.At(dur, cell.Tracker.Freeze)
	cell.Run(dur + 5*sim.Second)
	if err := cell.Tracer().Close(); err != nil {
		t.Fatalf("closing tracer: %v", err)
	}
	return cell
}

// TestTraceByteIdenticalSameSeed is the tracing determinism gate: two
// same-seed runs must write byte-identical JSONL traces. Any map-order
// or wall-clock leak into an emit site shows up here as a diff.
func TestTraceByteIdenticalSameSeed(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"OutRAN-UM", func() Config { return smallConfig(SchedOutRAN) }},
		{"PF-AM", func() Config {
			cfg := smallConfig(SchedPF)
			cfg.RLC = AM
			return cfg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var buf1, buf2 bytes.Buffer
			runTraced(t, tc.cfg(), obs.NewJSONLSink(&buf1))
			runTraced(t, tc.cfg(), obs.NewJSONLSink(&buf2))
			if buf1.Len() == 0 {
				t.Fatal("empty trace; the scenario emitted nothing")
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				a, b := buf1.Bytes(), buf2.Bytes()
				n := len(a)
				if len(b) < n {
					n = len(b)
				}
				off := 0
				for off < n && a[off] == b[off] {
					off++
				}
				lo := off - 80
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("traces differ (%d vs %d bytes) at offset %d:\n run 1: %q\n run 2: %q",
					len(a), len(b), off, a[lo:min(off+80, len(a))], b[lo:min(off+80, len(b))])
			}
		})
	}
}

// TestAuditMatchesLiveStats cross-checks the trace-derived decision
// audit against the live run's end-of-run statistics: the spectral
// efficiency and fairness replayed from se_sample events must equal
// the CellTracker aggregates, TTI counts must agree, and the flow
// spans must cover every recorded flow.
func TestAuditMatchesLiveStats(t *testing.T) {
	ring := obs.NewRingSink(0)
	cell := runTraced(t, smallConfig(SchedOutRAN), ring)
	st := cell.CollectStats()
	var a obs.Audit
	var flows obs.Flows
	for _, ev := range ring.Events() {
		a.Emit(&ev)
		flows.Emit(&ev)
	}
	a.Close()

	const tol = 1e-12
	if math.Abs(a.MeanSE-st.MeanSpectralEff) > tol {
		t.Fatalf("trace-replayed SE %.15g != live %.15g", a.MeanSE, st.MeanSpectralEff)
	}
	if math.Abs(a.MeanFairness-st.MeanFairnessIndex) > tol {
		t.Fatalf("trace-replayed fairness %.15g != live %.15g", a.MeanFairness, st.MeanFairnessIndex)
	}
	if math.Abs(a.MeanActiveSE-cell.Tracker.MeanActiveSE()) > tol {
		t.Fatalf("trace-replayed active SE %.15g != live %.15g", a.MeanActiveSE, cell.Tracker.MeanActiveSE())
	}
	if got := len(cell.Tracker.SpectralEfficiencySamples()); a.Samples != got {
		t.Fatalf("replayed %d samples, tracker folded %d", a.Samples, got)
	}
	if uint64(a.TTIs) != st.TTIs {
		t.Fatalf("trace saw %d TTIs, live counted %d", a.TTIs, st.TTIs)
	}
	if a.Decisions == 0 {
		t.Fatal("no decision records from the ε-relaxation scheduler")
	}
	if a.Overrides == 0 {
		t.Fatal("no ε-relaxation overrides recorded; scenario too quiet to audit")
	}
	if a.SacrificeMean < 0 || a.SacrificeMean > 1 {
		t.Fatalf("implausible mean SE sacrifice %g", a.SacrificeMean)
	}
	if a.CandMean < 1 {
		t.Fatalf("mean candidate set %g below 1", a.CandMean)
	}

	completed := 0
	for _, f := range flows.List {
		if f.End < 0 {
			continue
		}
		completed++
		if f.Start < 0 || f.Size <= 0 {
			t.Fatalf("flow %s completed without a start span", f.Flow)
		}
		if r, ok := f.Residency(); ok {
			if got := r.Ingress + r.Air + r.Drain; got != f.FCT {
				t.Fatalf("flow %s residency sums to %v, FCT %v", f.Flow, got, f.FCT)
			}
		} else {
			t.Fatalf("flow %s completed but has no residency breakdown", f.Flow)
		}
	}
	if completed != st.FlowsCompleted {
		t.Fatalf("trace shows %d completed flows, live recorded %d", completed, st.FlowsCompleted)
	}
}

// TestTraceHooksSurviveReestablish guards the re-wiring path: RRC
// re-establishment rebuilds the PDCP/RLC entities, and the trace hooks
// must be re-attached by wireBearer or the flow-lifecycle events
// silently stop after the first RLF.
func TestTraceHooksSurviveReestablish(t *testing.T) {
	cfg := smallConfig(SchedOutRAN)
	cfg.RLC = AM
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(0)
	cell.SetTracer(obs.NewTracer(ring))
	const reestablishAt = 100 * sim.Millisecond
	cell.Eng.At(10*sim.Millisecond, func() {
		if err := cell.StartFlow(0, 400*1024, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	cell.Eng.At(reestablishAt, func() {
		if err := cell.ReestablishUE(0); err != nil {
			t.Fatal(err)
		}
	})
	cell.Run(8 * sim.Second)

	ue := cell.ues[0]
	if ue.pdcpTx.OnSNAssign == nil || ue.pdcpTx.OnLevelChange == nil {
		t.Fatal("PDCP trace hooks dropped by re-establishment")
	}
	if ue.tx.(*rlc.AMTx).OnRetx == nil {
		t.Fatal("AM retx trace hook dropped by re-establishment")
	}
	after := 0
	for _, ev := range ring.Events() {
		if ev.Type == obs.EvPDCPSN && ev.T > reestablishAt {
			after++
		}
	}
	if after == 0 {
		t.Fatal("no pdcp_sn events after re-establishment; hooks not re-wired")
	}
}

// TestSetTracerDisable verifies that installing an inert tracer clears
// every hook, restoring the zero-overhead path.
func TestSetTracerDisable(t *testing.T) {
	cell, err := NewCell(smallConfig(SchedOutRAN))
	if err != nil {
		t.Fatal(err)
	}
	cell.SetTracer(obs.NewTracer(obs.NewRingSink(0)))
	cell.SetTracer(nil)
	if cell.Tracker.Obs != nil {
		t.Fatal("tracker observer not cleared")
	}
	for _, ue := range cell.ues {
		if ue.pdcpTx.OnSNAssign != nil || ue.pdcpTx.OnLevelChange != nil {
			t.Fatal("PDCP hooks not cleared")
		}
	}
	cell.Eng.At(10*sim.Millisecond, func() {
		if err := cell.StartFlow(0, 10*1024, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	cell.Run(2 * sim.Second) // must not panic on the nil tracer
}
