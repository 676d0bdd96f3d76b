package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"outran/internal/sim"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{Type: EvTTI}) // must not panic
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer close: %v", err)
	}
	tr = NewTracer(nil)
	if tr.Enabled() {
		t.Fatal("nil-sink tracer reports enabled")
	}
	tr.Emit(Event{Type: EvTTI})
	if err := tr.Close(); err != nil {
		t.Fatalf("nil-sink close: %v", err)
	}
}

func TestRingSinkUnbounded(t *testing.T) {
	r := NewRingSink(0)
	for i := 0; i < 100; i++ {
		r.Emit(&Event{T: sim.Time(i), Type: EvTTI})
	}
	evs := r.Events()
	if len(evs) != 100 || r.Dropped() != 0 {
		t.Fatalf("got %d events, %d dropped", len(evs), r.Dropped())
	}
	for i, ev := range evs {
		if ev.T != sim.Time(i) {
			t.Fatalf("event %d out of order: t=%v", i, ev.T)
		}
	}
}

func TestRingSinkWrap(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 10; i++ {
		r.Emit(&Event{T: sim.Time(i), Type: EvTTI})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, want := range []sim.Time{6, 7, 8, 9} {
		if evs[i].T != want {
			t.Fatalf("ring[%d] = t%v, want t%v", i, evs[i].T, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", r.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{T: 0, Type: EvMeta, Sched: "OutRAN(PF,eps=0.2)", UEs: 8, RBs: 25, Seed: 42,
			BandwidthHz: 5e6, TTINanos: sim.Millisecond, SamplePeriod: 50},
		{T: 10, Type: EvFlowStart, UE: 3, Flow: "10.0.0.1:443>10.1.0.3:10001/6", Size: 4096},
		{T: 20, Type: EvMLFQ, UE: 3, Flow: "10.0.0.1:443>10.1.0.3:10001/6",
			Level: 1, Sent: 1500, Threshold: 1024},
		{T: 30, Type: EvDecision, RB: 7, Best: 2, Sel: 3, BestM: 1.5, SelM: 1.44, Level: 1, Cands: 2},
		{T: 40, Type: EvHARQ, UE: 3, OK: true, Attempts: 1, Bits: 1024},
		{T: 50, Type: EvSESample, SE: 0.9, Fairness: 0.76, ActiveSE: -1},
		{T: 60, Type: EvFlowEnd, UE: 3, Flow: "10.0.0.1:443>10.1.0.3:10001/6", Size: 4096, FCT: 50},
	}
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for i := range in {
		s.Emit(&in[i])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	out := NewRingSink(0)
	if err := ReadTrace(&buf, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out.Events()) {
		t.Fatalf("round trip changed events:\n in:  %+v\n out: %+v", in, out.Events())
	}
}

// closeCounter collects events and counts Close calls.
type closeCounter struct {
	RingSink
	closes int
}

func (c *closeCounter) Close() error { c.closes++; return nil }

// TestReadTraceErrorLine: a read error names the trace's own line,
// blank lines counted, after the sink took every event before it and
// was closed.
func TestReadTraceErrorLine(t *testing.T) {
	var trace []byte
	for i := range 2 {
		line, _ := appendEvent(nil, &hotEvents[i])
		trace = append(trace, line...)
	}
	cut, _ := appendEvent(nil, &hotEvents[2])
	trace = append(trace, '\n')
	trace = append(trace, cut[:len(cut)/2]...)
	s := &closeCounter{}
	err := ReadTrace(bytes.NewReader(trace), s)
	if err == nil || !strings.HasPrefix(err.Error(), "obs: trace line 4: ") {
		t.Errorf("err = %v, want one naming line 4", err)
	}
	if got := len(s.Events()); got != 2 || s.closes != 1 {
		t.Errorf("sink took %d events and %d closes, want 2 and 1", got, s.closes)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	write := func() []byte {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		s.Emit(&Event{T: 1, Type: EvDecision, BestM: 1.0 / 3.0, SelM: 0.3141592653589793})
		s.Emit(&Event{T: 2, Type: EvSESample, SE: 0.9008568660968663})
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(write(), write()) {
		t.Fatal("identical event streams serialized differently")
	}
}

// tracedStream is n finite events cycling through hotEvents, with t,
// rb and best_m moving so that the sink's memos both hit and miss.
func tracedStream(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		ev := hotEvents[i%len(hotEvents)]
		ev.T += sim.Time(i / 50)
		ev.RB = i % 25
		ev.BestM += float64(i % 3)
		evs[i] = ev
	}
	return evs
}

// every returns the indices k-1, 2k-1, ... below n.
func every(k, n int) []int {
	var out []int
	for i := k - 1; i < n; i += k {
		out = append(out, i)
	}
	return out
}

// TestJSONLSinkChunkBoundaries: the encoder goroutine takes the stream
// chunkEvents events at a time, and neither the bytes nor BytesWritten
// show where one chunk ends and the next begins.
func TestJSONLSinkChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { checkStream(t, tracedStream(n)) })
	}
	// BytesWritten after every k-th event, mid-chunk and on chunk ends,
	// counts exactly the stateless lines emitted so far.
	for _, k := range []int{1, 7, 100, chunkEvents - 1, chunkEvents, chunkEvents + 1} {
		t.Run(fmt.Sprint("drain_every_", k), func(t *testing.T) { checkStream(t, tracedStream(1000), every(k, 1000)...) })
	}
}

// TestJSONLSinkNonFiniteAcrossChunks: a NaN at the first, a middle and
// the last slot of a chunk ends the output at the event before it, with
// the library's error, whether or not the sink was drained around it.
func TestJSONLSinkNonFiniteAcrossChunks(t *testing.T) {
	for _, at := range []int{0, chunkEvents - 1, chunkEvents, chunkEvents + 100, 2*chunkEvents - 1} {
		evs := tracedStream(1000)
		evs[at].SE = math.NaN()
		t.Run(fmt.Sprint(at), func(t *testing.T) {
			checkStream(t, evs)
			checkStream(t, evs, every(chunkEvents/2, len(evs))...)
		})
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.limit {
		w.limit -= len(p)
		return len(p), nil
	}
	n := w.limit
	w.limit = 0
	return n, errWriterFull
}

// TestJSONLSinkWriteError: a writer that fails, at a sync point's flush
// or while the encoder writes a full buffer, stops the sink's output at
// the bytes it took; BytesWritten counts those and stays there, and
// Close reports the writer's error.
func TestJSONLSinkWriteError(t *testing.T) {
	const limit = 1000
	for _, n := range []int{50, 3000} { // under and over the 64 KB buffer
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := NewJSONLSink(&failingWriter{limit: limit})
			evs := tracedStream(n)
			for i := range evs {
				s.Emit(&evs[i])
			}
			if got := s.BytesWritten(); got != limit {
				s.Close()
				t.Fatalf("BytesWritten = %d, want the writer's %d", got, limit)
			}
			s.Emit(&evs[0])
			if got := s.BytesWritten(); got != limit {
				s.Close()
				t.Fatalf("BytesWritten after the error = %d, want %d", got, limit)
			}
			if err := s.Close(); !errors.Is(err, errWriterFull) {
				t.Fatalf("Close() = %v, want %v", err, errWriterFull)
			}
		})
	}
}

// TestJSONLSinkCloseStopsEncoder: Close leaves no goroutine behind, and
// a second Close neither blocks nor panics and repeats the first's
// result; BytesWritten and Emit after Close are harmless.
func TestJSONLSinkCloseStopsEncoder(t *testing.T) {
	base := runtime.NumGoroutine()
	evs := tracedStream(600)
	sinks := make([]*JSONLSink, 8)
	var bufs [8]bytes.Buffer
	for i := range sinks {
		sinks[i] = NewJSONLSink(&bufs[i])
		for j := range evs[:i*70] {
			sinks[i].Emit(&evs[j])
		}
	}
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after closing every sink, %d before opening them", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}

	s := sinks[len(sinks)-1]
	n := s.BytesWritten()
	done := make(chan error)
	go func() {
		s.Emit(&evs[0])
		done <- s.Close()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second Close() = %v, want the first's nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Close blocks")
	}
	if s.BytesWritten() != n || int64(bufs[len(sinks)-1].Len()) != n {
		t.Fatalf("after Close: BytesWritten %d, buffer %d bytes, want both %d", s.BytesWritten(), bufs[len(sinks)-1].Len(), n)
	}

	bad := NewJSONLSink(&failingWriter{})
	bad.Emit(&evs[0])
	first := bad.Close()
	if second := bad.Close(); first == nil || second != first {
		t.Fatalf("Close() = %v, then %v: want the writer's error twice", first, second)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("harq_failures")
	c.Inc()
	c.Add(4)
	if r.Counter("harq_failures") != c {
		t.Fatal("second lookup returned a different counter")
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("load")
	g.Set(0.7)
	if r.Gauge("load").Value() != 0.7 {
		t.Fatal("gauge lookup lost the value")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fct_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum %g, want 556.5", h.Sum())
	}
	// 0.5 and 1 land in le_1; 5 in le_10; 50 in le_100; 500 in +Inf.
	want := []uint64{2, 1, 1, 1}
	if got := h.BucketCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets %v, want %v", got, want)
	}
	if r.Histogram("fct_ms", []float64{7}) != h {
		t.Fatal("re-registration replaced the histogram")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	if b := ExpBuckets(5, 0.5, 3); len(b) != 1 || b[0] != 5 {
		t.Fatalf("degenerate factor should yield single bound, got %v", b)
	}
}

func TestFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("drops").Add(3)
	r.Gauge("load").Set(0.5)
	h := r.Histogram("lat", []float64{1, 2.5})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(7)
	flat := r.Flatten()
	want := map[string]float64{
		"drops":      3,
		"load":       0.5,
		"lat_sum":    9.5,
		"lat_count":  3,
		"lat_p50":    h.Quantile(0.5),
		"lat_p99":    h.Quantile(0.99),
		"lat_le_1":   1,
		"lat_le_2.5": 2, // cumulative
		"lat_le_inf": 3,
	}
	if !reflect.DeepEqual(flat, want) {
		t.Fatalf("Flatten = %v, want %v", flat, want)
	}
	names := r.Names()
	wantNames := []string{"drops", "lat", "load"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("Names = %v, want %v", names, wantNames)
	}
}
