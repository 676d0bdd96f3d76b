package ran

import "outran/internal/sim"

// This file holds the cell's hot-path arenas: free lists for the two
// object populations that used to be allocated per event — transport
// blocks (one per served grant, recycled when the HARQ process ends)
// and flow runtimes (one per flow, recycled after completion). At
// city scale these dominate steady-state garbage: a 64-cell × 2000-UE
// deployment creates millions of flows and tens of millions of TBs,
// all of identical shape and bounded lifetime.
//
// Recycling changes memory identity only, never simulated values:
// every recycled object is field-reset to exactly the state a fresh
// allocation would have, and every map walk that could observe
// pointer identity is already order-free or sorted. Traces,
// KPI streams and checkpoints stay byte-identical.
//
// The arenas themselves are dead state — they hold only terminated
// objects — so snapshots neither encode nor restore them; a resumed
// run simply regrows its free lists.

// deadFlow is one retired flow runtime resting in the graveyard until
// its reuse hold expires.
type deadFlow struct {
	fr        *flowRuntime
	retiredAt sim.Time
}

// flowHold is how long a retired flow runtime rests before reuse.
// Uplink ACK events scheduled before the flow completed still point at
// the runtime and fire up to Path.UplinkDelay later (a completed
// sender ignores them); reusing the runtime earlier would
// let a stale ACK land on the next flow's state. One uplink delay is
// the hard bound; doubled for margin, and reclaimFlow additionally
// requires strictly later simulation time so same-instant stragglers
// (UplinkDelay == 0) have fired before reuse.
func (c *Cell) flowHold() sim.Time { return 2 * c.cfg.Path.UplinkDelay }

// newTB returns a zeroed transport block, recycling one retired by
// putTB when available. The recycled pdus and subbands slices keep
// their capacity, so the steady state allocates nothing.
//
//outran:allocfree
func (c *Cell) newTB() *harqTB {
	if n := len(c.tbFree); n > 0 {
		tb := c.tbFree[n-1]
		c.tbFree[n-1] = nil
		c.tbFree = c.tbFree[:n-1]
		return tb
	}
	// Not a steady-state allocation: cold path: the free list grows to the in-flight TB population once, then every TB recycles
	return &harqTB{}
}

// putTB retires a terminated transport block to the free list. The
// caller must hold the only live reference: tbArrive retires a TB
// only on its two termination paths, after its queue entry has been
// popped and the TB is off harqPending.
// PDU pointers are cleared so the free list does not pin delivered
// PDUs (in AM mode they may still be live in the retransmission
// window — the window keeps its own references).
//
//outran:allocfree
func (c *Cell) putTB(tb *harqTB) {
	for i := range tb.pdus {
		tb.pdus[i] = nil
	}
	tb.pdus = tb.pdus[:0]
	tb.bits = 0
	tb.attempts = 0
	tb.readyAt = 0
	tb.reqSINR = 0
	tb.subbands = tb.subbands[:0]
	tb.waited = 0
	// Not a steady-state allocation: amortized free-list growth, bounded by the in-flight TB population; steady state reuses capacity
	c.tbFree = append(c.tbFree, tb)
}

// retireFlow parks a completed flow runtime in the graveyard. The
// flow must already be out of the UE's flow table (or displaced by a
// successor on the same tuple), so nothing simulated can reach it;
// the closures are dropped here so the graveyard retains only the
// three structs it will recycle.
func (c *Cell) retireFlow(fr *flowRuntime) {
	fr.onComplete = nil
	fr.sender.Send = nil
	fr.sender.OnComplete = nil
	fr.receiver.SendSACK = nil
	fr.receiver.OnDeliver = nil
	c.flowGrave = append(c.flowGrave, deadFlow{fr: fr, retiredAt: c.Eng.Now()})
}

// reclaimFlow pops the oldest graveyard entry whose hold has expired,
// or nil when none is ready. Retirement order is time order, so only
// the head can ever be ready. The strict time comparison guarantees
// every event scheduled at or before retirement has already fired.
func (c *Cell) reclaimFlow() *flowRuntime {
	if c.graveHead >= len(c.flowGrave) {
		return nil
	}
	d := c.flowGrave[c.graveHead]
	if c.Eng.Now() <= d.retiredAt+c.flowHold() {
		return nil
	}
	c.flowGrave[c.graveHead].fr = nil
	c.graveHead++
	switch {
	case c.graveHead == len(c.flowGrave):
		c.flowGrave = c.flowGrave[:0]
		c.graveHead = 0
	case c.graveHead >= 1024 && c.graveHead*2 >= len(c.flowGrave):
		// Compact the consumed prefix so a never-idle cell cannot grow
		// the graveyard without bound.
		n := copy(c.flowGrave, c.flowGrave[c.graveHead:])
		for i := n; i < len(c.flowGrave); i++ {
			c.flowGrave[i] = deadFlow{}
		}
		c.flowGrave = c.flowGrave[:n]
		c.graveHead = 0
	}
	return d.fr
}
