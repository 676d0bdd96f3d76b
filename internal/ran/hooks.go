package ran

import (
	"fmt"

	"outran/internal/rlc"
	"outran/internal/sim"
)

// FaultHooks lets an external fault-injection framework
// (internal/fault) perturb the cell's layers without reaching into its
// internals. Every field is optional; nil means "no effect". Hooks run
// on the single-threaded event loop, so implementations must be
// deterministic (own rng.Source, no wall clock) for same-seed chaos
// runs to reproduce bit-for-bit.
type FaultHooks struct {
	// SINROffsetDB returns an extra SINR offset in dB (usually
	// negative) applied to UE ue's channel at time now — deep fades
	// and outage bursts layered on the channel model. The offset is
	// seen both by the CQI report and by the HARQ decode evaluation.
	SINROffsetDB func(ue int, now sim.Time) float64
	// DropCQIReport reports whether UE ue's CQI report at now is lost.
	// The MAC then keeps scheduling on the stale previous report —
	// exactly the link-adaptation mismatch a real report loss causes.
	DropCQIReport func(ue int, now sim.Time) bool
	// CorruptHARQFeedback may flip the decode outcome the xNodeB sees
	// for UE ue's transport block: ok is the true outcome, the return
	// value is the (possibly corrupted) feedback. ACK->NACK causes a
	// spurious retransmission (duplicates at the receiver); NACK->ACK
	// loses the block without HARQ recovery, leaving it to the RLC.
	CorruptHARQFeedback func(ue int, now sim.Time, ok bool) bool
	// DropRLCPDU reports whether one RLC PDU is lost on top of the
	// BLER model (burst interference below HARQ granularity).
	DropRLCPDU func(ue int, now sim.Time, pdu *rlc.PDU) bool
	// Backhaul returns extra one-way delay and a drop decision for one
	// downlink packet on the CN->PDCP path (server to xNodeB).
	Backhaul func(now sim.Time) (extra sim.Time, drop bool)

	// OnDeliveryFail fires when UE ue's AM transmitter abandons a PDU
	// after maxRetx — the radio-link-failure trigger.
	OnDeliveryFail func(ue int, sn uint32)
}

// SetFaultHooks installs the hooks. Call after NewCell and before the
// first Run; replacing hooks mid-run is allowed but the swap itself
// must then be a scheduled, deterministic event.
func (c *Cell) SetFaultHooks(h FaultHooks) { c.hooks = h }

// ReestablishUE models RRC re-establishment after a radio-link
// failure: in-flight HARQ transport blocks and the entire RLC state
// (tx buffers, retransmission tables, reassembly windows) are torn
// down, and so is what the old entities sent that is still on its way
// (flushBearer). PDCP is rebuilt with fresh COUNT state on both ends,
// and the per-flow sent-bytes table survives via the §7 handover
// flow-state export so MLFQ priorities re-anchor instead of resetting.
// Bytes in flight below PDCP are lost; the transport senders recover
// them end-to-end via RTO.
//
// Do not call from inside an RLC pull/receive path (e.g. directly
// from an OnDeliveryFail hook): the entities being replaced are still
// on the stack there. Defer it: schedule an event at Eng.Now() on a
// sim.Handler of the caller's own, as the fault injector does. Like any
// pending event the cell does not handle, it makes SnapshotTo fail
// until it has fired.
func (c *Cell) ReestablishUE(id int) error {
	if id < 0 || id >= len(c.ues) {
		return fmt.Errorf("ran: no UE %d", id)
	}
	ue := c.ues[id]
	blob := ue.pdcpTx.ExportFlowState()
	// Retire the old entities' loss counters into a cell-level
	// accumulator so CollectStats keeps counting them after the swap.
	ue.addLosses(&c.retired)
	ue.tx.Close()
	ue.rx.Close()
	c.flushBearer(ue)
	if err := c.wireBearer(ue); err != nil {
		return err
	}
	if err := ue.pdcpTx.ImportFlowState(blob); err != nil {
		return err
	}
	c.ctrReestablish.Inc()
	if k := c.checker; k != nil {
		k.reestablish(id)
	}
	return nil
}

// flushBearer is the MAC reset (TS 38.321 §5.12) and RLC
// re-establishment (TS 38.322 §5.1.2): nothing the UE's old entities
// sent may reach their replacements. It drops the HARQ retransmissions,
// empties the transport blocks on the air (tbArrive drops an empty one)
// and zeroes the AM status reports on the uplink (AckSN 0 and no NACKs,
// which AMTx.OnStatus ignores).
func (c *Cell) flushBearer(ue *ueCtx) {
	ue.harqPending = nil
	for _, en := range c.Eng.Entries() {
		if en.H != sim.Handler(c) || int(en.Ev.Idx) != ue.id {
			continue
		}
		switch p := en.Ev.Ptr.(type) {
		case *harqTB: // evTB
			p.pdus = nil
		case *rlc.StatusPDU: // evAMStatus
			*p = rlc.StatusPDU{}
		}
	}
}

// AuditInvariants verifies the cell's cross-layer structural
// invariants: each RLC entity's own audit (bounded tx queue growth
// among them), HARQ retransmission bookkeeping, and that a UE off the
// awake list (see Cell.wake) has nothing to send: no byte queued, new
// or for retransmission, no HARQ TB pending and no grant. The queue is
// read from the entity's counters, never from Status, whose pops of the
// QoS head-of-line list are checkpoint state. It returns the
// first violation found (deterministically chosen — see the fold
// style in rlc.AMTx.Audit) or nil. The cell's invariant checker
// (InstallChecker) calls this every TTI and at teardown.
func (c *Cell) AuditInvariants() error {
	for _, ue := range c.ues {
		if err := ue.tx.Audit(); err != nil {
			return fmt.Errorf("ue %d: %w", ue.id, err)
		}
		if err := ue.rx.Audit(); err != nil {
			return fmt.Errorf("ue %d: %w", ue.id, err)
		}
		for _, tb := range ue.harqPending {
			if tb.attempts > harqMaxRetx {
				return fmt.Errorf("ue %d: pending HARQ TB with %d attempts, max %d", ue.id, tb.attempts, harqMaxRetx)
			}
			if tb.bits <= 0 {
				return fmt.Errorf("ue %d: pending HARQ TB with %d bits", ue.id, tb.bits)
			}
		}
		if ue.listed {
			continue
		}
		if n := ue.tx.QueuedBytes(); n > 0 {
			return fmt.Errorf("ue %d: off the awake list with %d bytes queued", ue.id, n)
		}
		if n := len(ue.harqPending); n > 0 {
			return fmt.Errorf("ue %d: off the awake list with %d HARQ TBs pending", ue.id, n)
		}
		if g := c.grants[ue.id]; g.bits > 0 {
			return fmt.Errorf("ue %d: off the awake list with a %d-bit grant", ue.id, g.bits)
		}
	}
	return nil
}
