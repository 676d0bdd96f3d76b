package sim

import "outran/internal/snapshot"

// Periodic invokes fn every period. It is its own event handler: fn
// runs, then the next tick is scheduled, so events scheduled inside fn
// take earlier sequence numbers than the re-arm. It tracks the
// (at, seq) of the pending tick so a checkpoint can re-register it
// bit-exactly.
type Periodic struct {
	e       *Engine
	period  Time
	fn      func()
	stopped bool
	nextAt  Time
	seq     uint64
}

// NewPeriodic schedules fn to run every period, starting one period
// from now, and returns the handle. Period must be positive.
func NewPeriodic(e *Engine, period Time, fn func()) *Periodic {
	if period <= 0 {
		panic("sim: non-positive periodic period")
	}
	p := &Periodic{e: e, period: period, fn: fn}
	p.arm()
	return p
}

//outran:allocfree
func (p *Periodic) arm() {
	p.nextAt = p.e.now + p.period
	p.seq = p.e.Schedule(p.nextAt, p, Event{})
}

// Fire is one tick.
func (p *Periodic) Fire(Event) {
	if p.stopped {
		return
	}
	p.fn()
	p.arm()
}

// Stop cancels future ticks; the already-queued tick evaporates as a
// no-op when it pops.
func (p *Periodic) Stop() { p.stopped = true }

// Walk is the periodic's checkpoint layout: the stopped flag and the
// pending tick's absolute fire time and seq. Decoding re-registers the
// tick of a running periodic with its exact original (at, seq).
func (p *Periodic) Walk(w *snapshot.Walker) {
	w.Bool(&p.stopped)
	snapshot.I64(w, &p.nextAt)
	w.U64(&p.seq)
	if w.Decoding() && !p.stopped {
		p.e.Reschedule(w, p.nextAt, p.seq, p, Event{})
	}
}
