package ran

import (
	"bytes"
	"fmt"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/rlc"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/transport"
)

// Structural sentinels for the cell snapshot walk.
const (
	tagConfig  = 0x2a01
	tagEngine  = 0x2a02
	tagCell    = 0x2a03
	tagUE      = 0x2a05
	tagFlow    = 0x2a06
	tagPending = 0x2a07
	tagHarqTB  = 0x2a08
)

// EnableSnapshots does nothing.
//
// Deprecated: every cell is checkpointable at no cost. Kept only until
// benchmark/ stops calling it.
func (c *Cell) EnableSnapshots() {}

// configFingerprint renders the effective (defaulted) configuration to
// a canonical string. Every field is plain data — no maps, pointers or
// function values — so the rendering is byte-stable across processes;
// restore compares it wholesale rather than diffing field by field.
func (c *Cell) configFingerprint() []byte {
	return []byte(fmt.Sprintf("%+v", c.cfg))
}

// cellEvents returns the engine's queued entries the cell handles, in
// ascending seq order, split by the section that encodes them: a
// transport block or AM status shares PDU objects with its UE's RLC
// state and goes in that UE's section, everything else in the pending
// section. Timers and periodics are recorded by the layer that owns
// them (only the live arm; stale arms are no-ops and are not carried
// over). Any other entry is a plain func scheduled with Engine.At/After:
// a checkpoint cannot serialise it and would silently drop it, so
// their presence is an error.
func (c *Cell) cellEvents() (perUE [][]sim.Entry, rest []sim.Entry, err error) {
	perUE = make([][]sim.Entry, len(c.ues))
	entries := c.Eng.Entries()
	rest = entries[:0] // filtered in place: the write index never passes the read index
	funcs := 0
	for _, en := range entries {
		switch en.H.(type) {
		case *Cell:
			if en.Ev.Kind == evTB || en.Ev.Kind == evAMStatus {
				perUE[en.Ev.Idx] = append(perUE[en.Ev.Idx], en)
			} else {
				rest = append(rest, en)
			}
		case *sim.Timer, *sim.Periodic:
		default:
			funcs++
		}
	}
	if funcs > 0 {
		return nil, nil, fmt.Errorf("ran: %d pending Engine.At/After funcs cannot be checkpointed and would be dropped; schedule checkpointable work as cell events", funcs)
	}
	return perUE, rest, nil
}

func putPeriodic(e *snapshot.Encoder, p *sim.Periodic) {
	stopped, nextAt, seq := p.Snap()
	e.Bool(stopped)
	e.I64(int64(nextAt))
	e.U64(seq)
}

type periodicArm struct {
	stopped bool
	nextAt  sim.Time
	seq     uint64
}

func getPeriodicArm(d *snapshot.Decoder) periodicArm {
	var a periodicArm
	a.stopped = d.Bool()
	a.nextAt = sim.Time(d.I64())
	a.seq = d.U64()
	return a
}

// putHarqTB encodes one transport block through the UE's shared RLC
// encoding context, so PDUs the TB shares with the AM retransmission
// window serialise as references to one instance.
func putHarqTB(se *rlc.SnapEnc, tb *harqTB) {
	e := se.E
	e.Mark(tagHarqTB)
	e.U32(uint32(len(tb.pdus)))
	for _, p := range tb.pdus {
		se.PDU(p)
	}
	e.Int(tb.bits)
	e.Int(tb.attempts)
	e.I64(int64(tb.readyAt))
	e.F64(tb.reqSINR)
	e.U32(uint32(len(tb.subbands)))
	for _, sb := range tb.subbands {
		e.Int(sb)
	}
	e.Int(tb.waited)
}

func getHarqTB(sd *rlc.SnapDec) *harqTB {
	d := sd.D
	d.Expect(tagHarqTB)
	tb := &harqTB{}
	n := d.Count(1 << 16)
	for i := 0; i < n && d.Err() == nil; i++ {
		if p := sd.PDU(); p != nil {
			tb.pdus = append(tb.pdus, p)
		}
	}
	tb.bits = d.Int()
	tb.attempts = d.Int()
	tb.readyAt = sim.Time(d.I64())
	tb.reqSINR = d.F64()
	ns := d.Count(1 << 16)
	for i := 0; i < ns && d.Err() == nil; i++ {
		tb.subbands = append(tb.subbands, d.Int())
	}
	tb.waited = d.Int()
	if d.Err() != nil {
		return nil
	}
	return tb
}

// SnapshotTo appends the cell's complete mid-run state to the builder
// as the sections config/engine/cell/metrics/ue<i>/pending. Flows
// started with persistent-connection or completion-callback options
// cannot be serialised and make the whole snapshot fail (checkpointed
// runs use the plain workload path), as does any pending Engine.At/After
// func.
func (c *Cell) SnapshotTo(b *snapshot.Builder) error {
	for _, ue := range c.ues {
		//outran:orderfree error check only; no encoding happens in this loop
		for tuple, fr := range ue.flows {
			if fr.onComplete != nil || fr.keep || fr.seqBase != 0 {
				return fmt.Errorf("ran: flow %v on UE %d uses persistent-connection or completion-callback options and cannot be checkpointed", tuple, ue.id)
			}
		}
	}
	ueEvents, events, err := c.cellEvents()
	if err != nil {
		return err
	}
	// An outstanding CQI report is not checkpoint state: measuring it
	// now writes the SubbandCQI the restored cell would otherwise have
	// to derive, and keeps the file layout free of it.
	c.measureAllCQI()

	var ce snapshot.Encoder
	ce.Mark(tagConfig)
	ce.Bytes32(c.configFingerprint())
	b.Add("config", &ce)

	var ee snapshot.Encoder
	ee.Mark(tagEngine)
	now, seq, nEvents := c.Eng.SnapState()
	ee.I64(int64(now))
	ee.U64(seq)
	ee.U64(nEvents)
	putPeriodic(&ee, c.tickTTI)
	putPeriodic(&ee, c.tickCQI)
	ee.Bool(c.tickReset != nil)
	if c.tickReset != nil {
		putPeriodic(&ee, c.tickReset)
	}
	b.Add("engine", &ee)

	var le snapshot.Encoder
	le.Mark(tagCell)
	st := c.r.State()
	for _, w := range st {
		le.U64(w)
	}
	le.U64(c.sduSeq)
	le.U16(c.nextPort)
	le.I64(int64(c.rttSum))
	le.Int(c.rttCnt)
	le.Int(c.retired.evictions)
	le.U64(c.retired.decipherFailures)
	le.U64(c.retired.reassemblyDrops)
	le.U64(c.retired.amAbandoned)
	le.U64(c.retired.amRetxBytes)
	le.U32(uint32(len(c.blockBits)))
	for _, v := range c.blockBits {
		le.I64(v)
	}
	for _, v := range c.blockActive {
		le.Bool(v)
	}
	le.Int(c.blockTTIs)
	// Scheduler audit counters — zeros when the scheduler is not an
	// InterUser (or is wrapped by one that isn't, as test harnesses
	// do), so the layout never depends on a runtime type assertion.
	var dec, ovr uint64
	var sac float64
	if iu, ok := c.sched.(*core.InterUser); ok {
		dec, ovr, sac = iu.Audit()
	}
	le.U64(dec)
	le.U64(ovr)
	le.F64(sac)
	b.Add("cell", &le)

	var me snapshot.Encoder
	c.Tracker.Snapshot(&me)
	c.FCT.Snapshot(&me)
	c.Delay.Snapshot(&me)
	c.Reg.Snapshot(&me)
	b.Add("metrics", &me)

	if c.kpi != nil {
		var ke snapshot.Encoder
		c.snapshotKPI(&ke)
		b.Add("kpi", &ke)
	}

	for i, ue := range c.ues {
		var e snapshot.Encoder
		c.snapshotUE(&e, ue, ueEvents[i])
		b.Add(fmt.Sprintf("ue%d", i), &e)
	}

	var pe snapshot.Encoder
	c.snapshotPending(&pe, events)
	b.Add("pending", &pe)
	return nil
}

// Snapshot assembles a complete snapshot file image.
func (c *Cell) Snapshot() ([]byte, error) {
	var b snapshot.Builder
	if err := c.SnapshotTo(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// snapshotUE encodes one UE: MAC view, PDCP entities, RLC entities,
// pending HARQ retransmissions, live flows (in canonical tuple order),
// and the UE's in-flight air-interface events (events: its transport
// blocks and AM statuses, in seq order) — everything that can
// share SDU/PDU objects goes through one rlc.SnapEnc so pointer
// identity survives the round trip.
func (c *Cell) snapshotUE(e *snapshot.Encoder, ue *ueCtx, events []sim.Entry) {
	e.Mark(tagUE)
	e.Int(ue.id)
	ue.macUser.Snapshot(e)
	ue.pdcpTx.Snapshot(e)
	ue.pdcpRx.Snapshot(e)
	se := rlc.NewSnapEnc(e)
	if ue.umTx != nil {
		e.U8(0)
		ue.umTx.Snapshot(se)
		ue.umRx.Snapshot(se)
	} else {
		e.U8(1)
		ue.amTx.Snapshot(se)
		ue.amRx.Snapshot(se)
	}
	e.U32(uint32(len(ue.harqPending)))
	for _, tb := range ue.harqPending {
		putHarqTB(se, tb)
	}
	e.Int(ue.enqueueDrops)
	keys := make([]ip.FiveTuple, 0, len(ue.flows))
	//outran:orderfree collected tuples are sorted before encoding
	for ft := range ue.flows {
		keys = append(keys, ft)
	}
	ip.SortTuples(keys)
	e.U32(uint32(len(keys)))
	for _, ft := range keys {
		fr := ue.flows[ft]
		e.Mark(tagFlow)
		ip.PutTuple(e, ft)
		e.I64(fr.size)
		e.I64(int64(fr.start))
		e.Bool(fr.incast)
		e.Bool(fr.record)
		fr.sender.Snapshot(e)
		fr.receiver.Snapshot(e)
	}
	e.U32(uint32(len(events)))
	for _, en := range events {
		e.U64(en.Seq)
		e.I64(int64(en.At))
		e.U8(en.Ev.Kind)
		if en.Ev.Kind == evTB {
			putHarqTB(se, en.Ev.Ptr.(*harqTB))
		} else {
			rlc.EncodeStatus(e, en.Ev.Ptr.(*rlc.StatusPDU))
		}
	}
}

// snapshotPending encodes every cell event not owned by a UE section,
// in ascending seq order.
func (c *Cell) snapshotPending(e *snapshot.Encoder, events []sim.Entry) {
	e.Mark(tagPending)
	e.U32(uint32(len(events)))
	for _, en := range events {
		ev := en.Ev
		e.U64(en.Seq)
		e.I64(int64(en.At))
		e.U8(ev.Kind)
		switch ev.Kind {
		case evArrival:
			e.Int(int(ev.B))
			e.I64(ev.A)
			e.Bool(ev.Idx&arrivalIncast != 0)
			e.Bool(ev.Idx&arrivalSkipRecord != 0)
		case evPacket:
			e.Int(int(ev.Idx))
			ip.PutPacket(e, *ev.Ptr.(*ip.Packet))
		case evAck:
			fr := ev.Ptr.(*flowRuntime)
			e.Int(fr.ue)
			ip.PutTuple(e, fr.tuple)
			e.I64(ev.A)
		case evTrackerReset, evTrackerFreeze:
		case evExternal:
			e.U64(uint64(ev.A))
		}
	}
}

// RestoreSnapshot overlays a snapshot onto a freshly built cell of the
// same configuration and re-registers every pending event with its
// exact original (time, seq), so continuing the run is byte-identical
// to never having stopped: same per-TTI schedule, same trace suffix,
// same end-of-run summary.
//
// The target must come straight from NewCell — same Config, clock still
// at zero, nothing scheduled beyond the construction tickers. Tracers
// (SetTracerResumed) and fault plumbing (SetFaultHooks,
// SetExternalHandler plus the injector's own restore) are re-attached
// by the caller first; external events fail the restore if no handler
// is attached.
func (c *Cell) RestoreSnapshot(a *snapshot.Archive) error {
	if c.restored {
		return fmt.Errorf("ran: cell already restored from a snapshot once")
	}
	if now, _, _ := c.Eng.SnapState(); now != 0 {
		return fmt.Errorf("ran: restore target already ran to %v; restore needs a freshly built cell", now)
	}

	d, err := a.Section("config")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	d.Expect(tagConfig)
	fp := d.Bytes32()
	if err := d.Err(); err != nil {
		return fmt.Errorf("ran: restoring config fingerprint: %w", err)
	}
	if want := c.configFingerprint(); !bytes.Equal(fp, want) {
		return fmt.Errorf("ran: snapshot was taken under a different configuration:\n  snapshot: %s\n  this run: %s", fp, want)
	}

	d, err = a.Section("engine")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	d.Expect(tagEngine)
	now := sim.Time(d.I64())
	seq := d.U64()
	nEvents := d.U64()
	ttiArm := getPeriodicArm(d)
	cqiArm := getPeriodicArm(d)
	hasReset := d.Bool()
	var resetArm periodicArm
	if hasReset {
		resetArm = getPeriodicArm(d)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("ran: restoring engine state: %w", err)
	}
	if hasReset != (c.tickReset != nil) {
		return fmt.Errorf("%w: snapshot and configuration disagree on the MLFQ reset ticker", snapshot.ErrCorrupt)
	}
	c.Eng.DropPending()
	c.Eng.RestoreState(now, seq, nEvents)
	c.tickTTI.RestoreArm(ttiArm.stopped, ttiArm.nextAt, ttiArm.seq)
	c.tickCQI.RestoreArm(cqiArm.stopped, cqiArm.nextAt, cqiArm.seq)
	if c.tickReset != nil {
		c.tickReset.RestoreArm(resetArm.stopped, resetArm.nextAt, resetArm.seq)
	}

	d, err = a.Section("cell")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	d.Expect(tagCell)
	var rs [4]uint64
	for i := range rs {
		rs[i] = d.U64()
	}
	c.sduSeq = d.U64()
	c.nextPort = d.U16()
	c.rttSum = sim.Time(d.I64())
	c.rttCnt = d.Int()
	c.retired.evictions = d.Int()
	c.retired.decipherFailures = d.U64()
	c.retired.reassemblyDrops = d.U64()
	c.retired.amAbandoned = d.U64()
	c.retired.amRetxBytes = d.U64()
	nb := d.Count(1 << 20)
	if d.Err() == nil && nb != len(c.blockBits) {
		return fmt.Errorf("%w: snapshot has %d UEs of block accounting, cell has %d", snapshot.ErrCorrupt, nb, len(c.blockBits))
	}
	for i := 0; i < nb && d.Err() == nil; i++ {
		c.blockBits[i] = d.I64()
	}
	for i := 0; i < nb && d.Err() == nil; i++ {
		c.blockActive[i] = d.Bool()
	}
	c.blockTTIs = d.Int()
	dec := d.U64()
	ovr := d.U64()
	sac := d.F64()
	if iu, ok := c.sched.(*core.InterUser); ok && d.Err() == nil {
		iu.SetAudit(dec, ovr, sac)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("ran: restoring cell scalars: %w", err)
	}
	c.r.SetState(rs)

	d, err = a.Section("metrics")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	if err := c.Tracker.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if err := c.FCT.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if err := c.Delay.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}
	if err := c.Reg.Restore(d); err != nil {
		return fmt.Errorf("ran: %w", err)
	}

	if c.kpi != nil {
		d, err = a.Section("kpi")
		if err != nil {
			return fmt.Errorf("ran: restoring cell: %w", err)
		}
		if err := c.restoreKPI(d); err != nil {
			return fmt.Errorf("ran: %w", err)
		}
	}

	for i, ue := range c.ues {
		d, err = a.Section(fmt.Sprintf("ue%d", i))
		if err != nil {
			return fmt.Errorf("ran: restoring cell: %w", err)
		}
		if err := c.restoreUE(d, ue); err != nil {
			return fmt.Errorf("ran: restoring UE %d: %w", i, err)
		}
	}

	d, err = a.Section("pending")
	if err != nil {
		return fmt.Errorf("ran: restoring cell: %w", err)
	}
	if err := c.restorePending(d); err != nil {
		return fmt.Errorf("ran: restoring pending events: %w", err)
	}
	c.restored = true
	return nil
}

func (c *Cell) restoreUE(d *snapshot.Decoder, ue *ueCtx) error {
	d.Expect(tagUE)
	if id := d.Int(); d.Err() == nil && id != ue.id {
		return fmt.Errorf("%w: section holds UE %d", snapshot.ErrCorrupt, id)
	}
	if err := ue.macUser.Restore(d); err != nil {
		return err
	}
	// The snapshot's SubbandCQI is fully measured; drop the t = 0 report
	// NewCell left outstanding so it cannot overwrite it.
	ue.cqiDue = false
	if err := ue.pdcpTx.Restore(d); err != nil {
		return err
	}
	if err := ue.pdcpRx.Restore(d); err != nil {
		return err
	}
	sd := rlc.NewSnapDec(d)
	mode := d.U8()
	if d.Err() == nil && (mode == 1) != (c.cfg.RLC == AM) {
		return fmt.Errorf("%w: snapshot RLC mode %d does not match configured %s", snapshot.ErrCorrupt, mode, c.cfg.RLC)
	}
	if ue.umTx != nil {
		if err := ue.umTx.Restore(sd); err != nil {
			return err
		}
		if err := ue.umRx.Restore(sd); err != nil {
			return err
		}
	} else {
		if err := ue.amTx.Restore(sd); err != nil {
			return err
		}
		if err := ue.amRx.Restore(sd); err != nil {
			return err
		}
	}
	nh := d.Count(1 << 20)
	for j := 0; j < nh && d.Err() == nil; j++ {
		if tb := getHarqTB(sd); tb != nil {
			ue.harqPending = append(ue.harqPending, tb)
		}
	}
	ue.enqueueDrops = d.Int()
	nf := d.Count(1 << 24)
	for j := 0; j < nf && d.Err() == nil; j++ {
		d.Expect(tagFlow)
		tuple := ip.GetTuple(d)
		size := d.I64()
		start := sim.Time(d.I64())
		incast := d.Bool()
		record := d.Bool()
		if d.Err() != nil {
			break
		}
		fr := &flowRuntime{ue: ue.id, tuple: tuple, size: size, start: start, incast: incast, record: record}
		fr.meta = c.flowMeta(size)
		fr.sender = transport.NewSender(c.Eng, c.cfg.Transport, tuple, size)
		fr.receiver = &transport.Receiver{}
		c.wireFlow(ue, fr)
		if err := fr.sender.Restore(d); err != nil {
			return err
		}
		if err := fr.receiver.Restore(d); err != nil {
			return err
		}
		ue.flows[tuple] = fr
	}
	np := d.Count(1 << 24)
	for j := 0; j < np && d.Err() == nil; j++ {
		seq := d.U64()
		at := sim.Time(d.I64())
		ev := sim.Event{Kind: d.U8(), Idx: int32(ue.id)}
		switch ev.Kind {
		case evTB:
			ev.Ptr = getHarqTB(sd)
		case evAMStatus:
			if ue.amTx == nil {
				return fmt.Errorf("%w: AM status event on a UM-mode bearer", snapshot.ErrCorrupt)
			}
			ev.Ptr = rlc.DecodeStatus(d)
		default:
			d.Fail(fmt.Errorf("%w: unexpected pending kind %d in UE section", snapshot.ErrCorrupt, ev.Kind))
		}
		c.reschedule(d, at, seq, ev)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in UE section", snapshot.ErrCorrupt, d.Remaining())
	}
	return nil
}

// reschedule puts a decoded event back on the engine with its original
// (at, seq), so same-time tie-breaks replay identically. It is the value
// the live run scheduled, dispatched by the same Fire. A decode error
// or an instant before the snapshot's clock fails the restore.
func (c *Cell) reschedule(d *snapshot.Decoder, at sim.Time, seq uint64, ev sim.Event) {
	if d.Err() != nil {
		return
	}
	if at < c.Eng.Now() {
		d.Fail(fmt.Errorf("%w: pending event at %v, before the snapshot instant %v", snapshot.ErrCorrupt, at, c.Eng.Now()))
		return
	}
	c.Eng.ScheduleExact(at, seq, c, ev)
}

func (c *Cell) restorePending(d *snapshot.Decoder) error {
	d.Expect(tagPending)
	n := d.Count(1 << 24)
	for j := 0; j < n && d.Err() == nil; j++ {
		seq := d.U64()
		at := sim.Time(d.I64())
		ev := sim.Event{Kind: d.U8()}
		switch ev.Kind {
		case evArrival:
			ev.B = int64(d.Int())
			ev.A = d.I64()
			incast := d.Bool()
			ev.Idx = arrivalFlags(incast, d.Bool())
			if d.Err() == nil && (ev.B < 0 || ev.A <= 0) {
				return fmt.Errorf("%w: arrival event for UE %d with size %d", snapshot.ErrCorrupt, ev.B, ev.A)
			}
		case evPacket:
			ue := d.Int()
			pkt := ip.GetPacket(d)
			if d.Err() == nil && (ue < 0 || ue >= len(c.ues)) {
				return fmt.Errorf("%w: packet event for UE %d of %d", snapshot.ErrCorrupt, ue, len(c.ues))
			}
			ev.Idx, ev.Ptr = int32(ue), &pkt
		case evAck:
			ue := d.Int()
			tuple := ip.GetTuple(d)
			ev.A = d.I64()
			if d.Err() != nil {
				break
			}
			if ue < 0 || ue >= len(c.ues) {
				return fmt.Errorf("%w: ack event for UE %d of %d", snapshot.ErrCorrupt, ue, len(c.ues))
			}
			// The live event points at the runtime it was issued for. A
			// flow torn down before the snapshot is off the table; its
			// late ACK was a no-op on the completed sender and stays one
			// on a runtime that has no sender.
			fr := c.ues[ue].flows[tuple]
			if fr == nil {
				fr = &flowRuntime{ue: ue, tuple: tuple}
			}
			ev.Ptr = fr
		case evTrackerReset, evTrackerFreeze:
		case evExternal:
			key := d.U64()
			if d.Err() != nil {
				break
			}
			if c.ext == nil || !c.ext.HasExternal(key) {
				return fmt.Errorf("%w: external event %#x has no handler (SetExternalHandler before RestoreSnapshot)", snapshot.ErrCorrupt, key)
			}
			ev.A = int64(key)
		default:
			d.Fail(fmt.Errorf("%w: unknown pending kind %d", snapshot.ErrCorrupt, ev.Kind))
		}
		c.reschedule(d, at, seq, ev)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in pending section", snapshot.ErrCorrupt, d.Remaining())
	}
	return nil
}
