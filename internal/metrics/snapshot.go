package metrics

import (
	"fmt"

	"outran/internal/sim"
	"outran/internal/snapshot"
)

// Structural sentinels for the metrics snapshot walk.
const (
	tagTracker = 0x4e01
	tagFCT     = 0x4e02
	tagDelay   = 0x4e03
)

// errRestoreDirty flags a restore into an accumulator that has
// already collected samples — the restore path always rebuilds
// metrics objects fresh, so prior state means a wiring bug.
var errRestoreDirty = fmt.Errorf("metrics: restore target not freshly constructed")

// Walk is the tracker's checkpoint layout, its complete accumulation
// state: block clock, running totals, the open block's per-UE shares,
// and every folded sample series.
// Config fields (BandwidthHz, SamplePeriod, RBBandwidthHz, TTISeconds),
// the UE count and the observer hook are re-established at construction
// and excluded; a snapshot of another UE count is rejected.
func (c *CellTracker) Walk(w *snapshot.Walker) {
	if w.Decoding() && (c.started || len(c.seSamples) != 0 || c.totalBits != 0) {
		w.Fail(fmt.Errorf("restoring cell tracker: %w", errRestoreDirty))
		return
	}
	w.Mark(tagTracker)
	w.Int(&c.ttiCount)
	w.I64(&c.bitsThisBlock)
	w.I64(&c.rbsThisBlock)
	if w.FixedLen(len(c.ueBlock), 1<<20, "UEs of the fairness block") {
		for i := range c.ueBlock {
			w.I64(&c.ueBlock[i].bits)
			w.Bool(&c.ueBlock[i].contended)
		}
	}
	snapshot.I64(w, &c.blockStart)
	w.I64(&c.totalBits)
	for _, series := range []*[]float64{&c.seSamples, &c.activeSamples, &c.fairSamples, &c.fairSums, &c.fairSumSqs, &c.fairNs} {
		snapshot.Slice(w, series, 1<<28, 8, w.F64)
	}
	snapshot.Slice(w, &c.seTimes, 1<<28, 8, func(t *sim.Time) { snapshot.I64(w, t) })
	w.Bool(&c.frozen)
	w.Bool(&c.started)
}

// Walk is the recorder's checkpoint layout: its mode and degradation
// flags, then either every completed-flow sample (exact path) or the
// six streaming histograms, then the started count.
//
// The snapshot's mode must match the recorder's — the construction path
// (config-driven) decides the mode, never the checkpoint — with one
// exception: a snapshot taken after a cap degrade (streaming +
// degraded) decodes onto an exact-constructed recorder by replaying
// the degrade first, so a resumed run continues exactly where the
// crashed one left off.
func (r *FCTRecorder) Walk(w *snapshot.Walker) {
	if w.Decoding() && (len(r.samples) != 0 || r.started != 0 || (r.stream != nil && r.stream.Completed() != 0)) {
		w.Fail(fmt.Errorf("restoring fct recorder: %w", errRestoreDirty))
		return
	}
	w.Mark(tagFCT)
	streaming, degraded := r.stream != nil, r.degraded
	w.Bool(&streaming)
	w.Bool(&degraded)
	if w.Decoding() {
		if w.Err() != nil {
			return
		}
		if degraded && r.stream == nil {
			r.degrade()
		}
		if streaming != (r.stream != nil) {
			w.Fail(fmt.Errorf("%w: fct recorder mode mismatch: snapshot streaming=%v, target streaming=%v",
				snapshot.ErrCorrupt, streaming, r.stream != nil))
			return
		}
		r.degraded = degraded
	}
	if streaming {
		r.stream.Walk(w)
	} else {
		snapshot.Slice(w, &r.samples, 1<<28, 8+8+8+1, func(rec *fctRec) { rec.walk(w) })
	}
	w.Int(&r.started)
}

// walk writes the sample unpacked: size, FCT, UE, incast. Decoding
// rejects a size or UE the packed record cannot hold.
func (rec *fctRec) walk(w *snapshot.Walker) {
	s := rec.sample()
	w.I64(&s.Size)
	snapshot.I64(w, &s.FCT)
	w.Int(&s.UE)
	w.Bool(&s.Incast)
	if !w.Decoding() || w.Err() != nil {
		return
	}
	packed, ok := packFCT(s)
	if !ok {
		w.Fail(fmt.Errorf("%w: FCT sample of %d bytes for UE %d outside [0, 2^40) x [0, 2^23)", snapshot.ErrCorrupt, s.Size, s.UE))
		return
	}
	*rec = packed
}

// Walk is the checkpoint layout of the delay accumulators.
func (d *DelayTracker) Walk(w *snapshot.Walker) {
	if w.Decoding() && (d.count != 0 || d.sum != 0) {
		w.Fail(fmt.Errorf("restoring delay tracker: %w", errRestoreDirty))
		return
	}
	w.Mark(tagDelay)
	snapshot.I64(w, &d.sum)
	w.Int(&d.count)
	snapshot.I64(w, &d.sumS)
	w.Int(&d.cntS)
}
