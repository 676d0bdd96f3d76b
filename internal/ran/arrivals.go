package ran

import (
	"crypto/sha256"
	"fmt"

	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/workload"
)

// Workload arrivals. ScheduleSource sets aside a band of n consecutive
// sequence numbers for a source's n flows and queues only the first;
// each arrival, when it fires, pulls the next flow and queues it under
// the next seq of the band. Flow i therefore fires at (start_i,
// base+i), the key it had when the whole schedule was queued at build,
// so every trace, KPI stream, summary and Processed() count is what it
// was, while the queue holds one arrival per source, not the schedule.

// arrivalCursor is one source's place in its schedule.
type arrivalCursor struct {
	src workload.Source // nil once the last flow is queued
	idx int             // the source's index on the cell, for messages
	// Flows starting outside [from, until) skip the FCT recorder.
	from, until sim.Time
	base        uint64 // flow 0's seq
	fired, n    int    // flows arrived so far, of the schedule's n
	// next is flow fired, whose arrival is queued, while fired < n.
	next workload.FlowSpec
	// gen is how Harness.Build generated the schedule, from which a
	// restore rebuilds it, or nil for a caller's own Source.
	gen *scheduleGen
}

// scheduleGen is what rebuilding a Harness-built schedule takes besides
// the cell's Config, which carries the Spec: the workload seed, the
// arrival span and the trace file's digest.
type scheduleGen struct {
	seed     uint64
	span     sim.Time
	traceSum [sha256.Size]byte
}

// generate builds the cell's workload schedule from its Spec — the one
// path Harness.Build and a restore that rebuilds a checkpointed
// schedule share. flows > 0 is the length a restore expects.
func (c *Cell) generate(seed uint64, span sim.Time, flows int) (*workload.Schedule, error) {
	return c.cfg.Workload.Generate(workload.Env{
		NumUEs:      c.cfg.NumUEs,
		CapacityBps: c.EffectiveCapacityBps(),
		Span:        span,
		Flows:       flows,
	}, rng.New(seed))
}

// ScheduleSource registers a workload source's arrivals. Flows starting
// outside [recordFrom, recordUntil) are scheduled but excluded from the
// FCT recorder — warm-up transient and pressure-tail traffic. The
// source must yield flows in non-decreasing start order (the Source
// contract); one that goes backwards panics when the run pulls the
// offending flow. The cell pulls each flow when the one before it
// arrives and drops the source after its last, under the seq pull order
// gives it, so the event sequence numbers — and with them every
// downstream tie-break — are reproducible across runs and across trace
// replay. A source whose length workload.Len cannot tell is collected
// first.
//
// A cell with flows still to come from such a source cannot be
// checkpointed: a restore could not rebuild them. Harness.Build's
// schedules can.
func (c *Cell) ScheduleSource(src workload.Source, recordFrom, recordUntil sim.Time) {
	c.scheduleSource(src, nil, recordFrom, recordUntil)
}

// scheduleSource is ScheduleSource for a schedule a restore can
// rebuild from gen, or, with gen nil, cannot.
func (c *Cell) scheduleSource(src workload.Source, gen *scheduleGen, from, until sim.Time) {
	n, ok := workload.Len(src)
	if !ok {
		flows := workload.Collect(src)
		src, n = workload.SliceSource(flows), len(flows)
	}
	if n == 0 {
		return
	}
	cur := &arrivalCursor{src: src, idx: len(c.cursors), from: from, until: until, base: c.Eng.Reserve(n), n: n, gen: gen}
	c.cursors = append(c.cursors, cur)
	cur.queue(c)
}

// queue pulls flow fired and queues its arrival under seq base+fired,
// or, after the last flow, drops the source.
//
//outran:allocfree
func (cur *arrivalCursor) queue(c *Cell) {
	if cur.fired == cur.n {
		cur.src, cur.next = nil, workload.FlowSpec{}
		return
	}
	f, ok := cur.src.Next()
	if !ok {
		//outran:allocok cold panic path; a source shorter than its length is a programming error
		panic(fmt.Sprintf("ran: workload source %d ended after %d of its %d flows", cur.idx, cur.fired, cur.n))
	}
	if cur.fired > 0 && f.Start < cur.next.Start {
		//outran:allocok cold panic path; an out-of-order source is a programming error
		panic(fmt.Sprintf("ran: workload source %d yields flow %d at %v after flow %d at %v; a Source must yield flows in start order", cur.idx, cur.fired, f.Start, cur.fired-1, cur.next.Start))
	}
	cur.next = f
	c.Eng.ScheduleExact(f.Start, cur.base+uint64(cur.fired), c, cur.event())
}

// event is the queued arrival of flow next.
func (cur *arrivalCursor) event() sim.Event {
	f := cur.next
	skip := f.Start < cur.from || f.Start >= cur.until
	return sim.Event{Kind: evArrival, Idx: arrivalFlags(f.Incast, skip), A: f.Size, B: int64(f.UE), Ptr: cur}
}

// arrived advances the cursor past the flow that just arrived and
// queues the next.
func (cur *arrivalCursor) arrived(c *Cell) {
	cur.fired++
	cur.queue(c)
}

// checkpointable fails for a cursor with flows to go that a restore
// could not rebuild.
func (cur *arrivalCursor) checkpointable() error {
	if cur.gen == nil && cur.fired < cur.n {
		return fmt.Errorf("ran: workload source %d came from ScheduleSource, not Harness.Build, and has %d flows to go that a restore could not rebuild; the cell cannot be checkpointed", cur.idx, cur.n-cur.fired)
	}
	return nil
}

// cursorBytes is the fewest bytes a cursor encodes to: its tag, the
// window, base, counts, seed, span and trace digest.
const cursorBytes = 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + sha256.Size

// walkCursors walks the arrival cursors, the pending section's record
// of the workload: each one's window, seq band, position, how its
// schedule was generated, and the flow it has queued. Decoding rebuilds
// each unfinished schedule, skips the flows that arrived and queues the
// next one under its seq.
func (c *Cell) walkCursors(w *snapshot.Walker) {
	n := w.Len(len(c.cursors), 1<<16, cursorBytes)
	if w.Decoding() {
		c.cursors = nil
	}
	for i := 0; i < n && w.Err() == nil; i++ {
		cur := &arrivalCursor{idx: i, gen: &scheduleGen{}}
		if !w.Decoding() {
			cur = c.cursors[i]
		}
		gen := cur.gen
		if gen == nil {
			gen = new(scheduleGen) // a finished caller's source walks a zero gen
		}
		w.Mark(tagCursor)
		snapshot.I64(w, &cur.from)
		snapshot.I64(w, &cur.until)
		w.U64(&cur.base)
		w.Int(&cur.fired)
		w.Int(&cur.n)
		w.U64(&gen.seed)
		snapshot.I64(w, &gen.span)
		w.Raw(gen.traceSum[:])
		// The band [base, base+n) was reserved before the checkpoint, so
		// it lies within the seqs the restored engine has issued; a
		// length checked against them bounds the rebuild.
		if seq := c.Eng.Seq(); w.Decoding() && w.Err() == nil &&
			(cur.base == 0 || cur.n < 1 || cur.fired < 0 || cur.fired > cur.n || cur.base > seq || uint64(cur.n-1) > seq-cur.base) {
			w.Fail(fmt.Errorf("%w: workload source %d at flow %d of %d, seq band from %d, engine at seq %d", snapshot.ErrCorrupt, i, cur.fired, cur.n, cur.base, seq))
			return
		}
		if cur.fired < cur.n {
			snapshot.I64(w, &cur.next.Start)
			w.Int(&cur.next.UE)
			w.I64(&cur.next.Size)
			w.Bool(&cur.next.Incast)
		}
		if w.Decoding() {
			c.restoreCursor(w, cur)
		}
	}
}

// restoreCursor puts a decoded cursor back: a finished one as it is, an
// unfinished one on its schedule rebuilt through generate, at the flow
// the checkpoint recorded, which must be the flow the rebuild holds
// there.
func (c *Cell) restoreCursor(w *snapshot.Walker, cur *arrivalCursor) {
	if w.Err() != nil {
		return
	}
	c.cursors = append(c.cursors, cur)
	if cur.fired == cur.n {
		return
	}
	// Without a trace file or Extra every flow starts within the span.
	spec := c.cfg.Workload
	if at := cur.next.Start; at < c.Eng.Now() || spec.TraceFile == "" && len(spec.Extra) == 0 && at > cur.gen.span {
		w.Fail(fmt.Errorf("%w: workload source %d queued flow %d at %v, outside [%v, %v]", snapshot.ErrCorrupt, cur.idx, cur.fired, at, c.Eng.Now(), cur.gen.span))
		return
	}
	sch, err := c.generate(cur.gen.seed, cur.gen.span, cur.n)
	if err != nil {
		w.Fail(fmt.Errorf("%w: workload source %d: rebuilding its schedule: %v", snapshot.ErrCorrupt, cur.idx, err))
		return
	}
	if sch.TraceSum != cur.gen.traceSum {
		w.Fail(fmt.Errorf("%w: workload source %d: trace file %s has changed since the checkpoint", snapshot.ErrCorrupt, cur.idx, c.cfg.Workload.TraceFile))
		return
	}
	src := sch.Source()
	for range cur.fired {
		src.Next()
	}
	if f, _ := src.Next(); f != cur.next {
		w.Fail(fmt.Errorf("%w: workload source %d: the rebuilt schedule's flow %d is %+v, the checkpoint queued %+v", snapshot.ErrCorrupt, cur.idx, cur.fired, f, cur.next))
		return
	}
	cur.src = src
	c.Eng.Reschedule(w, cur.next.Start, cur.base+uint64(cur.fired), c, cur.event())
}
