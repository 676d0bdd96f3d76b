package fault

import (
	"fmt"

	"outran/internal/sim"
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
func (in *Injector) SnapshotTo(b *snapshot.Builder) {
	var e snapshot.Encoder
	e.Mark(tagInjector)
	st := in.r.State()
	for _, w := range st {
		e.U64(w)
	}
	e.Int(in.RLFThreshold)
	e.U32(uint32(len(in.fadeDB)))
	for i := range in.fadeDB {
		e.F64(in.fadeDB[i])
		e.Int(in.cqiBlack[i])
		e.F64(in.harqProb[i])
		e.F64(in.pduProb[i])
		e.Int(in.failStreak[i])
		e.Bool(in.rlfPending[i])
	}
	e.F64(in.bhExtraMs)
	e.Int(in.bhOutage)
	e.U64(in.stats.CQIDropped)
	e.U64(in.stats.HARQFlipped)
	e.U64(in.stats.PDUsDropped)
	e.U64(in.stats.BackhaulDropped)
	e.U64(in.stats.RLFs)
	e.U64(in.stats.ForcedRLFs)
	b.Add(SectionInjector, &e)
}

// RestoreFrom overlays a snapshot onto a freshly built injector. Call
// PrepareResume first (the restored events index into the plan), then
// ran.Cell.RestoreSnapshot, then this.
func (in *Injector) RestoreFrom(a *snapshot.Archive) error {
	d, err := a.Section(SectionInjector)
	if err != nil {
		return fmt.Errorf("fault: restoring injector: %w", err)
	}
	d.Expect(tagInjector)
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	rlfTh := d.Int()
	n := d.Count(1 << 20)
	if d.Err() == nil && n != len(in.fadeDB) {
		return fmt.Errorf("fault: restoring injector: %w: snapshot has %d UEs, injector %d",
			snapshot.ErrCorrupt, n, len(in.fadeDB))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		in.fadeDB[i] = d.F64()
		in.cqiBlack[i] = d.Int()
		in.harqProb[i] = d.F64()
		in.pduProb[i] = d.F64()
		in.failStreak[i] = d.Int()
		in.rlfPending[i] = d.Bool()
	}
	in.bhExtraMs = d.F64()
	in.bhOutage = d.Int()
	in.stats.CQIDropped = d.U64()
	in.stats.HARQFlipped = d.U64()
	in.stats.PDUsDropped = d.U64()
	in.stats.BackhaulDropped = d.U64()
	in.stats.RLFs = d.U64()
	in.stats.ForcedRLFs = d.U64()
	if err := d.Err(); err != nil {
		return fmt.Errorf("fault: restoring injector: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("fault: restoring injector: %w: %d trailing bytes",
			snapshot.ErrCorrupt, d.Remaining())
	}
	in.r.SetState(st)
	in.RLFThreshold = rlfTh
	return nil
}

// SnapshotTo appends the monitor's full state, so a resumed chaos run
// reports the same checks/deliveries/violations a crash-free run
// would. Seen-SDU IDs are encoded in sorted order for byte-stable
// output.
func (m *Monitor) SnapshotTo(b *snapshot.Builder) {
	var e snapshot.Encoder
	e.Mark(tagMonitor)
	e.I64(int64(m.lastTTI))
	e.Bool(m.firstTTI)
	ids := make([]uint64, 0, len(m.seen))
	//outran:orderfree collected IDs are sorted before encoding
	for id := range m.seen {
		ids = append(ids, id)
	}
	sortU64(ids)
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
	}
	e.U32(uint32(len(m.lastSN)))
	for i := range m.lastSN {
		e.U32(m.lastSN[i])
		e.Bool(m.hasSN[i])
	}
	e.U64(m.report.Checks)
	e.U64(m.report.Deliveries)
	e.U64(m.report.Violated)
	e.U32(uint32(len(m.report.Violations)))
	for _, v := range m.report.Violations {
		e.I64(int64(v.At))
		e.String(v.Rule)
		e.String(v.Detail)
	}
	b.Add(SectionMonitor, &e)
}

// RestoreFrom overlays a snapshot onto a freshly built monitor.
func (m *Monitor) RestoreFrom(a *snapshot.Archive) error {
	d, err := a.Section(SectionMonitor)
	if err != nil {
		return fmt.Errorf("fault: restoring monitor: %w", err)
	}
	d.Expect(tagMonitor)
	lastTTI := d.I64()
	firstTTI := d.Bool()
	n := d.Count(1 << 28)
	seen := make(map[uint64]bool, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		seen[d.U64()] = true
	}
	nsn := d.Count(1 << 20)
	if d.Err() == nil && nsn != len(m.lastSN) {
		return fmt.Errorf("fault: restoring monitor: %w: snapshot has %d UEs, monitor %d",
			snapshot.ErrCorrupt, nsn, len(m.lastSN))
	}
	for i := 0; i < nsn && d.Err() == nil; i++ {
		m.lastSN[i] = d.U32()
		m.hasSN[i] = d.Bool()
	}
	m.report.Checks = d.U64()
	m.report.Deliveries = d.U64()
	m.report.Violated = d.U64()
	nv := d.Count(maxViolations)
	var violations []Violation
	for i := 0; i < nv && d.Err() == nil; i++ {
		violations = append(violations, Violation{
			At:     sim.Time(d.I64()),
			Rule:   d.String(),
			Detail: d.String(),
		})
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("fault: restoring monitor: %w", err)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("fault: restoring monitor: %w: %d trailing bytes",
			snapshot.ErrCorrupt, d.Remaining())
	}
	m.lastTTI = sim.Time(lastTTI)
	m.firstTTI = firstTTI
	m.seen = seen
	m.report.Violations = violations
	return nil
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
