package ran

import (
	"io"
	"testing"

	"outran/internal/obs"
	"outran/internal/sim"
	"outran/internal/workload"
)

// BenchmarkTraceReplay prices the JSONL sink on the events a real run
// emits, in their real order, so its line memos hit and miss as often
// as they do in a trace (BenchmarkJSONLSinkEmit re-emits one event and
// times only hits). It records 200 ms of the benchmark's cell-traced
// cell (12 UEs x 25 RBs, the mixed scenario at load 0.7), from 5 s in,
// then replays those events through a fresh JSONLSink per iteration.
// Each iteration ends with BytesWritten and Close inside the timed
// region, so ns/event covers the sink's encoder goroutine as well as
// Emit, and B/op includes each fresh sink's chunks.
func BenchmarkTraceReplay(b *testing.B) {
	mixed, ok := workload.Scenario("mixed", "lte", 0.7)
	if !ok {
		b.Fatal("no mixed scenario")
	}
	ring := obs.NewRingSink(1 << 15) // holds the span's ~5 000 events with room to spare
	h := Harness{
		Config: DefaultLTEConfig().WithTopology(12, 25).WithWorkload(mixed).ForScheduler(SchedOutRAN).WithSeed(1),
		Warmup: 500 * sim.Millisecond, Window: 40 * sim.Second, Drain: 6 * sim.Second,
		WorkloadSeed: 1, Tracer: obs.NewTracer(ring),
	}
	cell, err := h.Build()
	if err != nil {
		b.Fatal(err)
	}
	const from, until = 5 * sim.Second, 5200 * sim.Millisecond
	cell.Run(until)
	kept := ring.Events()
	if len(kept) == 0 || kept[0].T >= from {
		b.Fatal("the ring does not reach back to the start of the recorded span")
	}
	var events []obs.Event
	for _, ev := range kept {
		if ev.T >= from {
			events = append(events, ev)
		}
	}

	var written int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := obs.NewJSONLSink(io.Discard)
		for j := range events {
			sink.Emit(&events[j])
		}
		written = sink.BytesWritten()
		if err := sink.Close(); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(written)/float64(len(events)), "B/event")
}
