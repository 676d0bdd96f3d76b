package ran

import (
	"outran/internal/core"
	"outran/internal/obs"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

// kpiState is the cell's live-telemetry accumulation between samples.
// It exists only when Config.KPIEvery > 0 and is mutated exclusively
// from simulation state, so the KPI stream is byte-identical across
// same-seed runs and worker counts. Sampling is driven externally at
// run barriers — the cell schedules no events for it, keeping the
// checkpoint pending-event registry untouched.
type kpiState struct {
	win     *obs.Histogram // FCT ms, current window
	winDone *obs.Histogram // FCT ms, window closed by the last sample
	cum     *obs.Histogram // FCT ms, whole run

	lastT         sim.Time
	lastBits      int64
	lastHARQTx    uint64
	lastHARQRetx  uint64
	lastDecisions uint64
	lastSacSum    float64
}

// kpiBounds is the bucket layout every cell's KPI histograms share.
var kpiBounds = obs.KPIBuckets()

func newKPIState() *kpiState {
	return &kpiState{
		win:     obs.NewHistogram(kpiBounds),
		winDone: obs.NewHistogram(kpiBounds),
		cum:     obs.NewHistogram(kpiBounds),
	}
}

// observeKPIFCT feeds one recorded completion into the KPI windows
// (called from the flow completion hook; no-op when KPI is off).
func (c *Cell) observeKPIFCT(fct sim.Time) {
	if c.kpi == nil {
		return
	}
	ms := float64(fct) / float64(sim.Millisecond)
	c.kpi.win.Observe(ms)
	c.kpi.cum.Observe(ms)
}

// KPIEnabled reports whether the cell accumulates live KPI state.
func (c *Cell) KPIEnabled() bool { return c.kpi != nil }

// SampleKPI closes the current KPI window at now and returns the
// sample: the emitted record plus the mergeable state a deployment
// roll-up needs. The returned Win histogram stays valid until the
// next SampleKPI call; Cum for the cell's lifetime. The record's Cell
// field is 0 — deployment callers overwrite it with the cell index.
//
// Calling SampleKPI is part of the cell's deterministic state
// evolution: a run stays byte-identical with another only if both
// sample at the same instants, whether or not the records are kept.
func (c *Cell) SampleKPI(now sim.Time) obs.KPISample {
	k := c.kpi
	if k == nil {
		panic("ran: SampleKPI on a cell without Config.KPIEvery")
	}
	rec := obs.KPIRecord{V: obs.KPISchemaVersion, T: now}

	rec.WinFlows = int64(k.win.Count())
	rec.WinP50Ms = k.win.Quantile(0.50)
	rec.WinP99Ms = k.win.Quantile(0.99)
	rec.CumFlows = int64(k.cum.Count())
	rec.CumP50Ms = k.cum.Quantile(0.50)
	rec.CumP99Ms = k.cum.Quantile(0.99)

	// Window spectral efficiency from the tracker's cumulative bit
	// count. A tracker reset (warmup cut) rewinds the counter; the
	// window then re-anchors at zero, deterministically.
	totalBits := c.Tracker.TotalBits()
	if totalBits < k.lastBits {
		k.lastBits = 0
	}
	if dur := (now - k.lastT).Seconds(); dur > 0 && c.grid.BandwidthHz() > 0 {
		rec.SE = float64(totalBits-k.lastBits) / dur / c.grid.BandwidthHz()
	}

	// Jain fairness over the users' long-term average throughputs,
	// with the raw moments retained for cross-cell aggregation.
	c.catchUpAvgs()
	var fairSum, fairSumSq float64
	for _, u := range c.macUsers {
		t := u.AvgTputBps
		if t < 0 {
			t = 0
		}
		fairSum += t
		fairSumSq += t * t
	}
	rec.Fairness = 1
	if fairSumSq != 0 {
		rec.Fairness = fairSum * fairSum / (float64(len(c.macUsers)) * fairSumSq)
	}

	// Load: in-flight flows and RLC backlog per MLFQ priority level.
	// Status returns entity-owned scratch; the bytes are folded into
	// the record's own slice immediately.
	for _, ue := range c.ues {
		rec.ActiveFlows += len(ue.flows)
		for i, b := range ue.tx.Status(now).PerPriority {
			if i >= len(rec.QueueBytes) {
				rec.QueueBytes = append(rec.QueueBytes, 0)
			}
			rec.QueueBytes[i] += int64(b)
		}
	}

	// HARQ activity in the window.
	tx, retx := c.ctrHARQTx.Value(), c.ctrHARQRetx.Value()
	rec.WinHARQTx = int64(tx - k.lastHARQTx)
	rec.WinHARQRetx = int64(retx - k.lastHARQRetx)
	if rec.WinHARQTx > 0 {
		rec.HARQRetxRate = float64(rec.WinHARQRetx) / float64(rec.WinHARQTx)
	}
	k.lastHARQTx, k.lastHARQRetx = tx, retx

	// ε-relaxation activity in the window (OutRAN schedulers only).
	if iu, ok := c.sched.(*core.InterUser); ok {
		dec, _, sac := iu.Audit()
		rec.WinDecisions = int64(dec - k.lastDecisions)
		rec.WinSacSum = sac - k.lastSacSum
		if rec.WinDecisions > 0 {
			rec.Sacrifice = rec.WinSacSum / float64(rec.WinDecisions)
		}
		k.lastDecisions, k.lastSacSum = dec, sac
	}

	k.lastT = now
	k.lastBits = totalBits

	// Close the window: the just-filled histogram becomes the
	// returned one, the previous return buffer is recycled as the new
	// (empty) window.
	k.win, k.winDone = k.winDone, k.win
	k.win.Reset()

	return obs.KPISample{
		Rec:         rec,
		Win:         k.winDone,
		Cum:         k.cum,
		FairSum:     fairSum,
		FairSumSq:   fairSumSq,
		FairN:       len(c.macUsers),
		BandwidthHz: c.grid.BandwidthHz(),
	}
}

// tagKPI is the structural sentinel of the cell's kpi snapshot
// section.
const tagKPI = 0x2a09

// walk is the kpi section: the KPI accumulation state. The winDone
// buffer is excluded on purpose: it only carries the previous sample's
// return value and is recycled (reset) before its content is ever read
// again.
func (k *kpiState) walk(w *snapshot.Walker) {
	w.Mark(tagKPI)
	k.win.Walk(w)
	k.cum.Walk(w)
	snapshot.I64(w, &k.lastT)
	w.I64(&k.lastBits)
	w.U64(&k.lastHARQTx)
	w.U64(&k.lastHARQRetx)
	w.U64(&k.lastDecisions)
	w.F64(&k.lastSacSum)
}
