package fault

import (
	"fmt"
	"slices"

	"outran/internal/snapshot"
)

// Structural sentinels for the chaos layer's snapshot blocks.
const (
	tagInjector = 0x4a01
	tagMonitor  = 0x4a02
)

// SectionInjector and SectionMonitor name the archive sections the
// chaos layer adds next to the cell's own (see ran.Cell.SnapshotTo).
const (
	SectionInjector = "fault-injector"
	SectionMonitor  = "fault-monitor"
)

// SnapshotTo appends the injector's mutable state — accumulators, rng
// position, RLF bookkeeping, stats — as one section. The plan itself
// is NOT serialised: it re-derives from the run seed, and the pending
// apply/revert transitions are cell events the cell's own snapshot
// records by key (see FireExternal).
func (in *Injector) SnapshotTo(b *snapshot.Builder) { b.Walk(SectionInjector, in.walk) }

// RestoreFrom overlays a snapshot onto a freshly built injector. Call
// PrepareResume first (the restored events index into the plan), then
// ran.Cell.RestoreSnapshot, then this.
func (in *Injector) RestoreFrom(a *snapshot.Archive) error {
	if err := a.Walk(SectionInjector, in.walk); err != nil {
		return fmt.Errorf("fault: restoring injector: %w", err)
	}
	return nil
}

func (in *Injector) walk(w *snapshot.Walker) {
	w.Mark(tagInjector)
	in.r.Walk(w)
	w.Int(&in.RLFThreshold)
	if w.FixedLen(len(in.fadeDB), 1<<20, "UEs") {
		for i := range in.fadeDB {
			w.F64(&in.fadeDB[i])
			w.Int(&in.cqiBlack[i])
			w.F64(&in.harqProb[i])
			w.F64(&in.pduProb[i])
			w.Int(&in.failStreak[i])
			w.Bool(&in.rlfPending[i])
		}
	}
	w.F64(&in.bhExtraMs)
	w.Int(&in.bhOutage)
	w.U64(&in.stats.CQIDropped)
	w.U64(&in.stats.HARQFlipped)
	w.U64(&in.stats.PDUsDropped)
	w.U64(&in.stats.BackhaulDropped)
	w.U64(&in.stats.RLFs)
	w.U64(&in.stats.ForcedRLFs)
}

// SnapshotTo appends the monitor's full state, so a resumed chaos run
// reports the same checks/deliveries/violations a crash-free run
// would. Seen-SDU IDs are encoded in sorted order for byte-stable
// output.
func (m *Monitor) SnapshotTo(b *snapshot.Builder) { b.Walk(SectionMonitor, m.walk) }

// RestoreFrom overlays a snapshot onto a freshly built monitor.
func (m *Monitor) RestoreFrom(a *snapshot.Archive) error {
	if err := a.Walk(SectionMonitor, m.walk); err != nil {
		return fmt.Errorf("fault: restoring monitor: %w", err)
	}
	return nil
}

func (m *Monitor) walk(w *snapshot.Walker) {
	w.Mark(tagMonitor)
	snapshot.I64(w, &m.lastTTI)
	w.Bool(&m.firstTTI)
	snapshot.Map(w, m.seen, 1<<28, 8, slices.Sort, func(id *uint64, seen *bool) {
		w.U64(id)
		*seen = true
	})
	if w.FixedLen(len(m.lastSN), 1<<20, "UEs") {
		for i := range m.lastSN {
			w.U32(&m.lastSN[i])
			w.Bool(&m.hasSN[i])
		}
	}
	w.U64(&m.report.Checks)
	w.U64(&m.report.Deliveries)
	w.U64(&m.report.Violated)
	snapshot.Slice(w, &m.report.Violations, maxViolations, 8+4+4, func(v *Violation) { v.walk(w) })
}

func (v *Violation) walk(w *snapshot.Walker) {
	snapshot.I64(w, &v.At)
	w.String(&v.Rule)
	w.String(&v.Detail)
}
