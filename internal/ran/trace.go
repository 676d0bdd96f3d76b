package ran

import (
	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/rlc"
	"outran/internal/sim"
)

// trackerObs forwards the CellTracker's sample folds and window
// boundaries to the tracer so the end-of-run spectral-efficiency and
// fairness aggregates can be recomputed from the trace alone — the
// decision-audit cross-check in cmd/outran-trace depends on replaying
// exactly the samples the tracker folded.
type trackerObs struct{ c *Cell }

func (o trackerObs) OnSample(now sim.Time, se, fair, activeSE float64) {
	o.c.tracer.Emit(obs.Event{T: now, Type: obs.EvSESample, SE: se, Fairness: fair, ActiveSE: activeSE})
}

func (o trackerObs) OnReset() {
	o.c.tracer.Emit(obs.Event{T: o.c.Eng.Now(), Type: obs.EvTrackerReset})
}

func (o trackerObs) OnFreeze() {
	o.c.tracer.Emit(obs.Event{T: o.c.Eng.Now(), Type: obs.EvTrackerFreeze})
}

// SetTracer installs (or, with a nil/inert tracer, removes) the
// structured-event tracer. Call after NewCell and before Run: the
// opening meta event is stamped at the current simulation time and the
// per-layer hooks start firing from the next event onward. All event
// timestamps come from the event engine, so two same-seed runs emit
// byte-identical traces.
func (c *Cell) SetTracer(t *obs.Tracer) { c.installTracer(t, true) }

// SetTracerResumed installs a tracer without re-emitting the opening
// meta event — the restore path uses it when appending to a trace file
// that already holds the original run's meta line.
func (c *Cell) SetTracerResumed(t *obs.Tracer) { c.installTracer(t, false) }

func (c *Cell) installTracer(t *obs.Tracer, emitMeta bool) {
	c.tracer = t
	if !t.Enabled() {
		c.Tracker.Obs = nil
		if iu, ok := c.sched.(*core.InterUser); ok {
			iu.OnDecision = nil
		}
		for _, ue := range c.ues {
			ue.pdcpTx.OnSNAssign = nil
			ue.pdcpTx.OnLevelChange = nil
			if am, ok := ue.tx.(*rlc.AMTx); ok {
				am.OnRetx = nil
			}
		}
		return
	}
	if emitMeta {
		t.Emit(obs.Event{
			T: c.Eng.Now(), Type: obs.EvMeta,
			Sched:        c.sched.Name(),
			UEs:          len(c.ues),
			RBs:          c.grid.NumRB,
			Seed:         c.cfg.Seed,
			BandwidthHz:  c.grid.BandwidthHz(),
			TTINanos:     c.grid.TTI(),
			SamplePeriod: c.Tracker.SamplePeriod,
		})
	}
	c.Tracker.Obs = trackerObs{c}
	if iu, ok := c.sched.(*core.InterUser); ok {
		iu.OnDecision = func(now sim.Time, rb, best, sel int, bestM, selM float64, selLevel, candidates int) {
			c.tracer.Emit(obs.Event{
				T: now, Type: obs.EvDecision,
				RB: rb, Best: best, Sel: sel, BestM: bestM, SelM: selM,
				Level: selLevel, Cands: candidates,
			})
		}
	}
	for _, ue := range c.ues {
		c.wireTraceHooks(ue)
	}
}

// Tracer returns the installed tracer (nil when tracing is off).
func (c *Cell) Tracer() *obs.Tracer { return c.tracer }

// wireTraceHooks attaches the per-UE flow-lifecycle hooks to the UE's
// current PDCP/RLC entities. wireBearer calls it on every (re)build so
// RRC re-establishment does not silently drop the hooks; SetTracer
// calls it for the initial installation. A disabled tracer leaves the
// hooks nil — the layers' fast path.
func (c *Cell) wireTraceHooks(ue *ueCtx) {
	if !c.tracer.Enabled() {
		return
	}
	id := ue.id
	ue.pdcpTx.OnSNAssign = func(flow ip.FiveTuple, sn uint32) {
		c.tracer.Emit(obs.Event{
			T: c.Eng.Now(), Type: obs.EvPDCPSN,
			UE: id, Flow: flow.String(), SN: int64(sn),
		})
	}
	var thresholds []int64
	if c.policy != nil {
		thresholds = c.policy.Thresholds()
	}
	ue.pdcpTx.OnLevelChange = func(flow ip.FiveTuple, level int, sent int64) {
		var thr int64
		if level > 0 && level-1 < len(thresholds) {
			thr = thresholds[level-1]
		}
		c.tracer.Emit(obs.Event{
			T: c.Eng.Now(), Type: obs.EvMLFQ,
			UE: id, Flow: flow.String(), Level: level, Sent: sent, Threshold: thr,
		})
	}
	if am, ok := ue.tx.(*rlc.AMTx); ok {
		am.OnRetx = func(sn uint32, bytes, attempt int) {
			c.tracer.Emit(obs.Event{
				T: c.Eng.Now(), Type: obs.EvRLCRetx,
				UE: id, SN: int64(sn), Bytes: bytes, Attempts: attempt, Retx: true,
			})
		}
	}
}

// Summary assembles the complete JSON-exportable run summary: the
// configuration line, the consolidated counter schema, the FCT
// distribution per size class and the flattened metrics registry.
func (c *Cell) Summary() metrics.RunSummary {
	return metrics.RunSummary{
		Scheduler:  c.sched.Name(),
		RLC:        c.cfg.RLC.String(),
		UEs:        len(c.ues),
		RBs:        c.grid.NumRB,
		Seed:       c.cfg.Seed,
		Counters:   c.CollectStats(),
		FCTOverall: c.FCT.Overall(),
		FCTShort:   c.FCT.ByClass(metrics.Short),
		FCTMedium:  c.FCT.ByClass(metrics.Medium),
		FCTLong:    c.FCT.ByClass(metrics.Long),
		DelayMean:  c.Delay.Mean(),
		DelayShort: c.Delay.MeanShort(),
		Metrics:    c.Reg.Flatten(),
		Phases:     c.prof.NsPerTTI(),
	}
}
