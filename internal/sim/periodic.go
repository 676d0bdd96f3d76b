package sim

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

// Snap exports the pending tick: stopped flag, absolute fire time,
// and event seq.
func (p *Periodic) Snap() (stopped bool, nextAt Time, seq uint64) {
	return p.stopped, p.nextAt, p.seq
}

// RestoreArm re-registers the pending tick with its exact original
// (at, seq). For a stopped periodic it only restores the flag.
func (p *Periodic) RestoreArm(stopped bool, nextAt Time, seq uint64) {
	p.stopped = stopped
	p.nextAt = nextAt
	p.seq = seq
	if !stopped {
		p.e.ScheduleExact(nextAt, seq, p, Event{})
	}
}
