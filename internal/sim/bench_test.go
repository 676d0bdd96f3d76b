package sim

import "testing"

// BenchmarkEventThroughput measures raw engine throughput: the
// simulator processes hundreds of thousands of events per simulated
// second under load, so this is the floor of everything else.
func BenchmarkEventThroughput(b *testing.B) {
	var e Engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkArrivalCursors is the engine under a cell's shape: each of
// four workload sources keeps its one next arrival queued, under a seq
// it reserved (Reserve, then ScheduleExact), while 100 entries churn in
// flight — inside the 26-282 entries benchmark/'s workloads keep
// pending. A fired arrival queues its source's next one 400 us later
// under the band's next seq, and an in-flight entry re-arms 0.1-1.6 ms
// ahead, so both populations stay constant and about one event in
// thirteen is an arrival; one op is one event.
func BenchmarkArrivalCursors(b *testing.B) {
	const sources, inFlight = 4, 100
	e := &Engine{}
	c := &churn{e: e}
	for i := 0; i < sources; i++ {
		// A band wide enough for every event of the run to be this
		// source's arrival; reserving it allocates nothing.
		base := e.Reserve(b.N + 1)
		e.ScheduleExact(Time(i)*arrivalGap/sources, base, c, Event{Kind: arrival, A: int64(base)})
	}
	for i := 0; i < inFlight; i++ {
		e.Schedule(Time(i)*Microsecond, c, Event{B: int64(i)})
	}
	c.limit = b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

const (
	arrival    = 1 // BenchmarkArrivalCursors' arrival kind; A is its seq
	arrivalGap = 400 * Microsecond
)

// churn is BenchmarkArrivalCursors' handler; it stops the engine after
// limit events.
type churn struct {
	e            *Engine
	fired, limit int
}

func (c *churn) Fire(ev Event) {
	if c.fired++; c.fired == c.limit {
		c.e.Stop()
	}
	if ev.Kind == arrival {
		ev.A++
		c.e.ScheduleExact(c.e.Now()+arrivalGap, uint64(ev.A), c, ev)
		return
	}
	ev.B = ev.B*6364136223846793005 + 1442695040888963407 // LCG step: the next hop's delay
	c.e.Schedule(c.e.Now()+Time(100+uint64(ev.B)>>53%1500)*Microsecond, c, ev)
}

// BenchmarkTimerRestart is the transport RTO's pattern at a busy cell's
// scale: 2 000 armed timers, of which a 1 ms TTI tick re-arms the next
// 200 round-robin, each 200 ms ahead, as an ACK re-arms its flow's RTO.
// No timer expires. One op is one re-arm, and the tick that does it.
func BenchmarkTimerRestart(b *testing.B) {
	const timers, perTTI, rto = 2000, 200, 200 * Millisecond
	var e Engine
	ts := make([]*Timer, timers)
	for i := range ts {
		ts[i] = NewTimer(&e, func() { b.Fatal("an RTO expired") })
		ts[i].Start(rto)
	}
	next, armed := 0, 0
	var tick func()
	tick = func() {
		for k := 0; k < perTTI && armed < b.N; k++ {
			ts[next].Start(rto + Time(next%7)*Microsecond)
			next = (next + 1) % timers
			armed++
		}
		if armed == b.N {
			e.Stop()
		}
		e.After(Millisecond, tick)
	}
	e.After(Millisecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
