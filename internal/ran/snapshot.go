package ran

import (
	"bytes"
	"fmt"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/metrics"
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
	tagCursor  = 0x2a09
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
// A cell renders it once, at its first checkpoint or restore
// (walkConfig): the configuration never changes after NewCell, and a
// run that never checkpoints never needs it.
func configFingerprint(cfg Config) []byte {
	return []byte(fmt.Sprintf("%+v", cfg))
}

// cellEvents returns the engine's queued entries the cell handles, in
// ascending seq order, split by the section that encodes them: a
// transport block or AM status shares PDU objects with its UE's RLC
// state and goes in that UE's section, everything else in the pending
// section, the cell's clock ticks among them. Timers are recorded by
// the layer that owns them (a timer's one queued entry is its arm,
// which Timer.Walk carries), and workload arrivals by their cursors.
// Any other entry belongs to another handler — a func scheduled with
// Engine.At/After, a fault injector's plan transition: a checkpoint
// cannot serialise it and would silently drop it, so its presence is an
// error.
func (c *Cell) cellEvents() (perUE [][]sim.Entry, rest []sim.Entry, err error) {
	perUE = make([][]sim.Entry, len(c.ues))
	entries := c.Eng.Entries()
	rest = entries[:0] // filtered in place: the write index never passes the read index
	foreign := 0
	for _, en := range entries {
		switch en.H.(type) {
		case *Cell:
			switch en.Ev.Kind {
			case evArrival:
			case evTB, evAMStatus:
				perUE[en.Ev.Idx] = append(perUE[en.Ev.Idx], en)
			default:
				rest = append(rest, en)
			}
		case *sim.Timer:
		default:
			foreign++
		}
	}
	if foreign > 0 {
		return nil, nil, fmt.Errorf("ran: %d pending events of handlers other than the cell and its timers cannot be checkpointed and would be dropped; schedule checkpointable work as cell events", foreign)
	}
	return perUE, rest, nil
}

// walkHarqTB is a transport block's checkpoint layout. It goes through
// the UE's shared reference context, so PDUs the TB shares with the AM
// retransmission window serialise as references to one instance.
func walkHarqTB(refs *rlc.Refs, p **harqTB) {
	w := refs.W
	if w.Decoding() {
		*p = &harqTB{}
	}
	tb := *p
	w.Mark(tagHarqTB)
	snapshot.Slice(w, &tb.pdus, 1<<16, rlc.RefBytes, refs.PDU)
	w.Int(&tb.bits)
	w.Int(&tb.attempts)
	snapshot.I64(w, &tb.readyAt)
	w.F64(&tb.reqSINR)
	snapshot.Slice(w, &tb.subbands, 1<<16, 8, w.Int)
	w.Int(&tb.waited)
}

// section is one named part of the cell's archive and the walk that
// describes it.
type section struct {
	name string
	walk func(*snapshot.Walker)
}

// sections lists the cell's archive in file order: config, engine, cell,
// metrics, kpi when the cell samples KPIs, one per UE, pending. Encoding
// passes the queue's cell entries as cellEvents split them; decoding
// passes none and the walks reschedule what they read.
func (c *Cell) sections(ueEvents [][]sim.Entry, rest []sim.Entry) []section {
	secs := []section{
		{"config", c.walkConfig},
		{"engine", c.walkEngine},
		{"cell", c.walkCell},
		{"metrics", c.walkMetrics},
	}
	if c.kpi != nil {
		secs = append(secs, section{"kpi", c.kpi.walk})
	}
	for i, ue := range c.ues {
		secs = append(secs, section{fmt.Sprintf("ue%d", i), func(w *snapshot.Walker) { c.walkUE(w, ue, ueEvents[i]) }})
	}
	return append(secs, section{"pending", func(w *snapshot.Walker) { c.walkPending(w, rest) }})
}

// SnapshotTo appends the cell's complete mid-run state to the builder
// as the sections config/engine/cell/metrics/ue<i>/pending. Flows
// started with persistent-connection or completion-callback options
// cannot be serialised and make the whole snapshot fail (checkpointed
// runs use the plain workload path), as do pending events of any
// handler other than the cell and its timers (Engine.At/After funcs, a
// fault injector's transitions) and flows still to come from a source
// the caller scheduled with ScheduleSource.
func (c *Cell) SnapshotTo(b *snapshot.Builder) error {
	for _, cur := range c.cursors {
		if err := cur.checkpointable(); err != nil {
			return err
		}
	}
	for _, ue := range c.ues {
		// Order-free: error check only; no encoding happens in this loop
		for tuple, fr := range ue.flows {
			if fr.onComplete != nil || fr.keep || fr.seqBase != 0 {
				return fmt.Errorf("ran: flow %v on UE %d uses persistent-connection or completion-callback options and cannot be checkpointed", tuple, ue.id)
			}
		}
	}
	ueEvents, rest, err := c.cellEvents()
	if err != nil {
		return err
	}
	// An outstanding CQI report is not checkpoint state: measuring it
	// now writes the SubbandCQI the restored cell would otherwise have
	// to derive, and keeps the file layout free of it. Likewise the PF
	// decays an idle UE has not yet applied (catchUpAvg): the restored
	// cell starts with every UE woken and every average current.
	c.measureAllCQI()
	c.catchUpAvgs()
	for _, s := range c.sections(ueEvents, rest) {
		b.Walk(s.name, s.walk)
	}
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

// RestoreSnapshot overlays a snapshot onto a freshly built cell of the
// same configuration and re-registers every pending event with its
// exact original (time, seq), so continuing the run is byte-identical
// to never having stopped: same per-TTI schedule, same trace suffix,
// same end-of-run summary.
//
// The target must come straight from NewCell — same Config, clock still
// at zero, nothing scheduled beyond the first clock ticks NewCell
// queues, which the engine section's decode drops. Tracers
// (SetTracerResumed) and fault hooks (SetFaultHooks) are re-attached by
// the caller first.
func (c *Cell) RestoreSnapshot(a *snapshot.Archive) error {
	if c.restored {
		return fmt.Errorf("ran: cell already restored from a snapshot once")
	}
	if now := c.Eng.Now(); now != 0 {
		return fmt.Errorf("ran: restore target already ran to %v; restore needs a freshly built cell", now)
	}
	for _, s := range c.sections(make([][]sim.Entry, len(c.ues)), nil) {
		if err := a.Walk(s.name, s.walk); err != nil {
			return fmt.Errorf("ran: restoring cell: %w", err)
		}
	}
	c.restored = true
	return nil
}

// walkConfig is the config section: the fingerprint of the effective
// configuration, which a restore target must share.
func (c *Cell) walkConfig(w *snapshot.Walker) {
	w.Mark(tagConfig)
	if c.fingerprint == nil {
		c.fingerprint = configFingerprint(c.cfg)
	}
	want := c.fingerprint
	fp := want
	w.Bytes(&fp)
	if w.Decoding() && w.Err() == nil && !bytes.Equal(fp, want) {
		w.Fail(fmt.Errorf("ran: snapshot was taken under a different configuration:\n  snapshot: %s\n  this run: %s", fp, want))
	}
}

// walkEngine is the engine section: the clock, the seq counter and the
// processed-event count. The queue's entries travel in the sections
// that own them.
func (c *Cell) walkEngine(w *snapshot.Walker) {
	w.Mark(tagEngine)
	c.Eng.Walk(w)
}

// walkCell is the cell section: the rng position and the cell-level
// counters.
func (c *Cell) walkCell(w *snapshot.Walker) {
	w.Mark(tagCell)
	c.r.Walk(w)
	w.U64(&c.sduSeq)
	w.U16(&c.nextPort)
	snapshot.I64(w, &c.rttSum)
	w.Int(&c.rttCnt)
	w.Int(&c.retired.BufferEvictions)
	w.U64(&c.retired.DecipherFailures)
	w.U64(&c.retired.ReassemblyDrops)
	w.U64(&c.retired.SkippedPDUs)
	w.U64(&c.retired.AMAbandoned)
	w.U64(&c.retired.AMRetxBytes)
	// Scheduler audit counters — zeros when the scheduler is not an
	// InterUser (or is wrapped by one that isn't, as test harnesses
	// do), so the layout never depends on a runtime type assertion.
	iu, ok := c.sched.(*core.InterUser)
	if !ok {
		iu = &core.InterUser{}
	}
	iu.WalkAudit(w)
}

// walkMetrics is the metrics section.
func (c *Cell) walkMetrics(w *snapshot.Walker) {
	c.Tracker.Walk(w)
	c.FCT.Walk(w)
	c.Delay.Walk(w)
	c.Reg.Walk(w)
}

// walkUE is one UE's section: MAC view, PDCP entities, RLC entities,
// pending HARQ retransmissions, live flows (in canonical tuple order),
// and the UE's in-flight air-interface events (events: its transport
// blocks and AM statuses, in seq order) — everything that can share
// SDU/PDU objects goes through one rlc.Refs so pointer identity
// survives the round trip.
func (c *Cell) walkUE(w *snapshot.Walker, ue *ueCtx, events []sim.Entry) {
	w.Mark(tagUE)
	snapshot.Same(w, w.Int, ue.id, "UE")
	ue.macUser.Walk(w)
	if w.Decoding() {
		// The snapshot's SubbandCQI is fully measured; drop the t = 0
		// report NewCell left outstanding so it cannot overwrite it.
		ue.cqiDue = false
	}
	ue.pdcpTx.Walk(w)
	ue.pdcpRx.Walk(w)
	refs := rlc.NewRefs(w)
	if snapshot.Same(w, w.U8, uint8(c.cfg.RLC), "RLC mode"); w.Err() != nil { // UM 0, AM 1
		return
	}
	ue.tx.Walk(refs)
	ue.rx.Walk(refs)
	snapshot.Slice(w, &ue.harqPending, 1<<20, harqTBBytes, func(tb **harqTB) { walkHarqTB(refs, tb) })
	w.Int(&ue.enqueueDrops)
	snapshot.Map(w, ue.flows, 1<<24, 4+ip.TupleBytes+8+8+1+1, ip.SortTuples, func(tuple *ip.FiveTuple, frp **flowRuntime) {
		w.Mark(tagFlow)
		tuple.Walk(w)
		if w.Decoding() {
			*frp = &flowRuntime{ue: ue.id}
		}
		fr := *frp
		w.I64(&fr.size)
		snapshot.I64(w, &fr.start)
		w.Bool(&fr.incast)
		w.Bool(&fr.record)
		if w.Decoding() {
			if w.Err() == nil && (fr.size <= 0 || fr.size >= metrics.SizeLimit) {
				// StartFlow's bounds: past them the completion would panic in Record.
				w.Fail(fmt.Errorf("%w: flow %v of %d bytes, outside [1, 2^40)", snapshot.ErrCorrupt, *tuple, fr.size))
			}
			if w.Err() != nil {
				return
			}
			fr.tuple = *tuple
			fr.meta = c.flowMeta(fr.size)
			fr.sender = transport.NewSender(c.Eng, c.cfg.Transport, fr.tuple, fr.size)
			fr.receiver = &transport.Receiver{}
			c.wireFlow(ue, fr)
		}
		fr.sender.Walk(w)
		fr.receiver.Walk(w)
	})
	c.walkEvents(w, events, func(ev *sim.Event) {
		ev.Idx = int32(ue.id)
		switch ev.Kind {
		case evTB:
			tb, _ := ev.Ptr.(*harqTB)
			walkHarqTB(refs, &tb)
			ev.Ptr = tb
		case evAMStatus:
			if _, am := ue.tx.(*rlc.AMTx); !am {
				w.Fail(fmt.Errorf("%w: AM status event on a UM-mode bearer", snapshot.ErrCorrupt))
				return
			}
			st, _ := ev.Ptr.(*rlc.StatusPDU)
			if w.Decoding() {
				st = &rlc.StatusPDU{}
			}
			st.Walk(w)
			ev.Ptr = st
		default:
			w.Fail(fmt.Errorf("%w: unexpected pending kind %d in UE section", snapshot.ErrCorrupt, ev.Kind))
		}
	})
}

// harqTBBytes is the fewest bytes a transport block encodes to: its tag,
// two counts and five scalars.
const harqTBBytes = 4 + 4 + 8 + 8 + 8 + 8 + 4 + 8

// walkEvents walks a counted list of the cell's queued events, in
// ascending seq order: each entry's (seq, at, kind) and then whatever
// payload walks for that kind. Decoding puts every event it reads back
// on the engine with its original (at, seq) — the value the live run
// scheduled, dispatched by the same Fire.
func (c *Cell) walkEvents(w *snapshot.Walker, events []sim.Entry, payload func(*sim.Event)) {
	n := w.Len(len(events), 1<<24, 8+8+1)
	var decoded sim.Entry
	for j := 0; j < n && w.Err() == nil; j++ {
		// Encoding walks the queue's copy in place: an entry copied out for
		// payload, a func value, would be a heap object per event.
		en := &decoded
		if w.Decoding() {
			decoded = sim.Entry{}
		} else {
			en = &events[j]
		}
		w.U64(&en.Seq)
		snapshot.I64(w, &en.At)
		w.U8(&en.Ev.Kind)
		payload(&en.Ev)
		if w.Decoding() {
			c.Eng.Reschedule(w, en.At, en.Seq, c, en.Ev)
		}
	}
}

// walkPending is the pending section: every cell event not owned by a
// UE section or an arrival cursor, then the cursors. A live cell always
// has one tick queued per clock it runs, so decoding rejects a section
// whose ticks differ: a missing tick stops its clock, a second one runs
// its work twice a period, and a reset tick in a cell with no reset
// period re-queues itself at the same instant for ever.
func (c *Cell) walkPending(w *snapshot.Walker, events []sim.Entry) {
	w.Mark(tagPending)
	// Ticks by kind - evTTI: TTI, CQI, MLFQ reset.
	var ticks [3]int
	want := [3]int{1, 1, 0}
	if c.cfg.resetsMLFQ() {
		want[2] = 1
	}
	// ueIndex walks a UE index, which must name one of the cell's UEs.
	ueIndex := func(ue *int, what string) {
		w.Int(ue)
		if w.Decoding() && w.Err() == nil && (*ue < 0 || *ue >= len(c.ues)) {
			w.Fail(fmt.Errorf("%w: %s event for UE %d of %d", snapshot.ErrCorrupt, what, *ue, len(c.ues)))
		}
	}
	c.walkEvents(w, events, func(ev *sim.Event) {
		switch ev.Kind {
		case evPacket:
			ue := int(ev.Idx)
			ueIndex(&ue, "packet")
			ev.Idx = int32(ue)
			pkt, _ := ev.Ptr.(*ip.Packet)
			if w.Decoding() {
				pkt = &ip.Packet{}
			}
			pkt.Walk(w)
			ev.Ptr = pkt
		case evAck:
			fr, _ := ev.Ptr.(*flowRuntime)
			if w.Decoding() {
				fr = &flowRuntime{}
			}
			ueIndex(&fr.ue, "ack")
			fr.tuple.Walk(w)
			w.I64(&ev.A)
			w.I64(&ev.B)
			if w.Decoding() && w.Err() == nil {
				// The live event points at the runtime it was issued for. A
				// flow torn down before the snapshot is off the table; its
				// late ACK was a no-op on the completed sender and stays one
				// on a runtime that has no sender.
				if live := c.ues[fr.ue].flows[fr.tuple]; live != nil {
					fr = live
				}
			}
			ev.Ptr = fr
		case evTTI, evCQI, evFlowReset:
			ticks[ev.Kind-evTTI]++
		case evTrackerReset, evTrackerFreeze:
		default:
			w.Fail(fmt.Errorf("%w: unknown pending kind %d", snapshot.ErrCorrupt, ev.Kind))
		}
	})
	if w.Decoding() && w.Err() == nil && ticks != want {
		w.Fail(fmt.Errorf("%w: pending TTI, CQI and MLFQ-reset ticks %v, want %v", snapshot.ErrCorrupt, ticks, want))
	}
	c.walkCursors(w)
}
