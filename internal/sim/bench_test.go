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

// BenchmarkArrivalHeavy is the engine under a workload's shape: 20 000
// pre-scheduled arrivals wait while 40 entries churn in flight, about
// the mix at t = 20 s of benchmark/'s flow-churn. A fired arrival is
// re-queued behind the last one and an in-flight entry re-arms 0.1-1.6
// ms ahead, so both populations stay constant; one op is one event.
func BenchmarkArrivalHeavy(b *testing.B) {
	const inFlight = 40
	e := &Engine{}
	c := &churn{e: e}
	for i := 0; i < arrivals; i++ {
		e.Schedule(Time(i)*arrivalGap, c, Event{Kind: arrival})
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
	arrival    = 1 // BenchmarkArrivalHeavy's arrival kind
	arrivals   = 20000
	arrivalGap = 50 * Microsecond
)

// churn is BenchmarkArrivalHeavy's handler; it stops the engine after
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
		c.e.Schedule(c.e.Now()+arrivals*arrivalGap, c, ev)
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
	NewPeriodic(&e, Millisecond, func() {
		for k := 0; k < perTTI && armed < b.N; k++ {
			ts[next].Start(rto + Time(next%7)*Microsecond)
			next = (next + 1) % timers
			armed++
		}
		if armed == b.N {
			e.Stop()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
