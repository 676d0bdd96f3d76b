// Package obs is the simulator's deterministic tracing and telemetry
// layer. It records flow-lifecycle spans (arrival, PDCP SN assignment,
// MLFQ demotions, RLC retransmissions, HARQ rounds, delivery,
// completion) and per-TTI scheduler decision records as structured
// events, timestamped exclusively with sim.Time from the event engine —
// never the wall clock — so two same-seed runs emit byte-identical
// traces.
//
// The layer is built to cost nothing when off: every emit site in the
// hot path guards on Tracer.Enabled(), which is false for both a nil
// *Tracer and a Tracer with a nil sink, so the disabled path is a
// single pointer check (see the overhead gate in internal/ran).
//
// Sinks are pluggable: RingSink keeps events in memory for tests and
// in-process analysis, JSONLSink streams one JSON object per line for
// offline analysis with cmd/outran-trace, and the folds (Audit, Flows)
// keep only their aggregates. ReadTrace replays a JSONL file into any
// of them.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"outran/internal/sim"
)

// Event types. One flat Event schema covers all of them; each type
// populates its documented subset of fields.
const (
	// EvMeta opens a trace: run configuration the analyzers need
	// (scheduler, cell dimensions, seed, sample period).
	EvMeta = "meta"
	// EvFlowStart marks a flow's arrival at the server (ue, flow, size).
	EvFlowStart = "flow_start"
	// EvFlowEnd marks transport-level completion (ue, flow, size, fct).
	EvFlowEnd = "flow_end"
	// EvPDCPSN records a PDCP sequence-number assignment — with delayed
	// numbering (§4.4) this is the moment the first byte of the SDU is
	// scheduled onto the air (ue, flow, sn).
	EvPDCPSN = "pdcp_sn"
	// EvMLFQ records an intra-user MLFQ level transition, with the
	// sent-bytes total and the demotion threshold that triggered it
	// (ue, flow, level, sent, threshold).
	EvMLFQ = "mlfq"
	// EvRLCTx records one RLC PDU leaving the tx buffer (ue, sn, bytes,
	// segs; retx=false). Segs > 1 means concatenation; a PDU whose SDU
	// continues in a later PDU shows up as the SDU's SN spanning PDUs.
	EvRLCTx = "rlc_tx"
	// EvRLCRetx records an AM retransmission (ue, sn, bytes, attempts).
	EvRLCRetx = "rlc_retx"
	// EvHARQ records a transport-block decode outcome one TTI after
	// transmission (ue, ok, attempts, bits). attempts counts previous
	// attempts: 0 is the first transmission.
	EvHARQ = "harq"
	// EvDeliver records an SDU handed up to the UE's PDCP (ue, flow, sn).
	EvDeliver = "deliver"
	// EvTTI summarises one scheduling interval (served_bits, used_rbs,
	// alloc_rbs).
	EvTTI = "tti"
	// EvDecision records one RB allocation by the ε-relaxation
	// inter-user scheduler: the legacy-best user, the candidate set
	// size, the chosen user and its MLFQ level, and both metrics, from
	// which the §5.4 per-decision spectral-efficiency sacrifice
	// (best_m - sel_m)/best_m follows (rb, best, sel, best_m, sel_m,
	// level, cands).
	EvDecision = "decision"
	// EvSESample mirrors one CellTracker sample fold (se, fairness,
	// active_se; active_se < 0 when no RB carried data in the block).
	EvSESample = "se_sample"
	// EvTrackerReset / EvTrackerFreeze bracket the measurement window
	// exactly as the run's CellTracker saw it, so replaying EvSESample
	// events reproduces the end-of-run aggregates bit-for-bit.
	EvTrackerReset  = "tracker_reset"
	EvTrackerFreeze = "tracker_freeze"
	// EvCheckpoint records one checkpoint write (size = snapshot bytes,
	// sent = cumulative writes). A restore re-emits the restored-from
	// checkpoint's event right after truncating the trace back to its
	// offset, so a recovered run's trace stays byte-identical to an
	// uninterrupted one's.
	EvCheckpoint = "checkpoint"
)

// Event is one structured trace record. The schema is flat: every
// event type uses the subset of fields its doc comment names, and the
// JSON field names are the contract shared with cmd/outran-trace.
// Numeric zero values are omitted on the wire; decoding restores them.
type Event struct {
	T    sim.Time `json:"t"`
	Type string   `json:"type"`

	UE   int      `json:"ue,omitempty"`
	Flow string   `json:"flow,omitempty"`
	Size int64    `json:"size,omitempty"`
	FCT  sim.Time `json:"fct,omitempty"`

	SN        int64 `json:"sn,omitempty"`
	Level     int   `json:"level,omitempty"`
	Sent      int64 `json:"sent,omitempty"`
	Threshold int64 `json:"threshold,omitempty"`

	Bytes    int  `json:"bytes,omitempty"`
	Segs     int  `json:"segs,omitempty"`
	Retx     bool `json:"retx,omitempty"`
	OK       bool `json:"ok,omitempty"`
	Attempts int  `json:"attempts,omitempty"`
	Bits     int  `json:"bits,omitempty"`

	ServedBits int `json:"served_bits,omitempty"`
	UsedRBs    int `json:"used_rbs,omitempty"`
	AllocRBs   int `json:"alloc_rbs,omitempty"`

	RB    int     `json:"rb,omitempty"`
	Best  int     `json:"best,omitempty"`
	Sel   int     `json:"sel,omitempty"`
	BestM float64 `json:"best_m,omitempty"`
	SelM  float64 `json:"sel_m,omitempty"`
	Cands int     `json:"cands,omitempty"`

	SE       float64 `json:"se,omitempty"`
	Fairness float64 `json:"fairness,omitempty"`
	ActiveSE float64 `json:"active_se,omitempty"`

	Sched        string   `json:"sched,omitempty"`
	UEs          int      `json:"ues,omitempty"`
	RBs          int      `json:"rbs,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	BandwidthHz  float64  `json:"bandwidth_hz,omitempty"`
	TTINanos     sim.Time `json:"tti_ns,omitempty"`
	SamplePeriod int      `json:"sample_period,omitempty"`
}

// Sink consumes events: a live run's, emitted on the single-threaded
// simulation loop, or a trace file's, replayed by ReadTrace. It is the
// only way events are consumed. Implementations must not reorder
// events. The pointer Emit receives is valid only during the call —
// the tracer and ReadTrace reuse one Event for every emission — so a
// sink that keeps an event copies it (*ev), never the pointer.
type Sink interface {
	Emit(ev *Event)
	Close() error
}

// Tracer is the per-cell emit front end. A nil *Tracer and a Tracer
// with a nil sink are both fully inert; hot-path callers guard event
// construction with Enabled().
type Tracer struct {
	sink Sink
	// scratch is the one Event every emission is copied into and the
	// sink is pointed at, so that handing the sink a pointer through
	// the interface does not put each event on the heap.
	scratch Event
}

// NewTracer wraps a sink. A nil sink yields the inert fast path.
func NewTracer(s Sink) *Tracer { return &Tracer{sink: s} }

// Enabled reports whether events will actually be recorded. This is
// the hot-path guard: false costs two pointer checks and no allocation.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Emit records one event. Safe on a nil tracer or nil sink.
//
//outran:allocfree
func (t *Tracer) Emit(ev Event) {
	if t == nil || t.sink == nil {
		return
	}
	t.scratch = ev
	t.sink.Emit(&t.scratch)
}

// Close flushes and closes the underlying sink.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}

// RingSink keeps the most recent events in memory — the test and
// in-process-analysis sink. Capacity <= 0 keeps everything.
type RingSink struct {
	cap     int
	events  []Event
	start   int // ring head when len(events) == cap
	dropped uint64
}

// NewRingSink builds a sink bounded to capacity events (<= 0: unbounded).
func NewRingSink(capacity int) *RingSink { return &RingSink{cap: capacity} }

// Emit implements Sink.
func (r *RingSink) Emit(ev *Event) {
	if r.cap > 0 && len(r.events) == r.cap {
		r.events[r.start] = *ev
		r.start = (r.start + 1) % r.cap
		r.dropped++
		return
	}
	r.events = append(r.events, *ev)
}

// Close implements Sink.
func (r *RingSink) Close() error { return nil }

// Events returns the retained events in emission order.
func (r *RingSink) Events() []Event {
	if r.start == 0 {
		return r.events
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Dropped returns how many events the ring overwrote.
func (r *RingSink) Dropped() uint64 { return r.dropped }

// JSONLSink streams events as one JSON object per line, appendEvent's
// bytes built through a lineMemo. Field order is fixed by the Event
// struct and all values derive from simulation state, so same-seed runs
// write byte-identical files.
//
// The encoding runs on one goroutine of the sink's own. Emit copies the
// event into a chunk of chunkEvents events and, when the chunk is full,
// hands it to the encoder and takes an encoded one back. A sink owns
// sinkChunks chunks (about 300 KB), allocated by NewJSONLSink and
// released by Close: the queue is bounded by them, and Emit blocks when
// it needs a chunk and all of them are with the encoder. BytesWritten
// and Close are the only sync points: each hands over the partial chunk
// and returns once the encoder has written and flushed every event
// emitted before it. A sink is used from one goroutine; Emit,
// BytesWritten and Close keep the semantics of an encoder that ran
// inside Emit.
type JSONLSink struct {
	cur    *chunk        // the chunk Emit fills; nil once closed
	full   chan *chunk   // chunks to encode, in emission order
	free   chan *chunk   // encoded chunks, back from the encoder
	synced chan *chunk   // a sync chunk, back once written and flushed
	done   chan struct{} // closed when the encoder goroutine returns
	c      io.Closer     // closed by Close when the writer is also a closer
	enc    *jsonlEncoder
}

// chunkEvents is the number of events Emit copies into a chunk before
// it hands the chunk to the encoder; sinkChunks is the number of chunks
// a sink owns.
const (
	chunkEvents = 256
	sinkChunks  = 4
)

// chunk is a run of copied events on its way to the encoder.
type chunk struct {
	n    int  // evs[:n] are the events to encode
	sync bool // flush after encoding, and hand the chunk back on synced
	evs  [chunkEvents]Event
}

// jsonlEncoder is the half of a JSONLSink its goroutine owns: the line
// memo, the buffered writer and the sticky error. The sink reads the
// byte count and the error only after a sync or once the goroutine has
// returned.
type jsonlEncoder struct {
	w    *bufio.Writer
	cw   *countingWriter
	memo lineMemo // the line buffers and what they already hold
	err  error
}

// countingWriter tracks cumulative bytes written through it, giving
// the checkpoint layer an exact trace offset to truncate back to on
// resume.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewJSONLSink wraps a writer and starts the sink's encoder goroutine,
// which Close stops. If w is an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	cw := &countingWriter{w: w}
	s := &JSONLSink{
		full:   make(chan *chunk, sinkChunks),
		free:   make(chan *chunk, sinkChunks),
		synced: make(chan *chunk),
		done:   make(chan struct{}),
		enc:    &jsonlEncoder{w: bufio.NewWriterSize(cw, 1<<16), cw: cw},
	}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	chunks := make([]chunk, sinkChunks)
	s.cur = &chunks[0]
	for i := 1; i < sinkChunks; i++ {
		s.free <- &chunks[i]
	}
	go s.enc.run(s.full, s.free, s.synced, s.done)
	return s
}

// BytesWritten waits until the encoder has written and flushed every
// event emitted so far, and returns the total bytes emitted to the
// underlying writer. The checkpoint layer records this alongside each
// snapshot; a resumed run truncates the trace file to it so the
// continuation appends the exact suffix the uninterrupted run would
// have written.
func (s *JSONLSink) BytesWritten() int64 {
	if s.cur != nil {
		s.sync()
	}
	return s.enc.cw.n
}

// sync hands the encoder the partial chunk and waits for it back.
func (s *JSONLSink) sync() {
	s.cur.sync = true
	s.full <- s.cur
	s.cur = <-s.synced
}

// Emit implements Sink. The first encode or write error sticks and is
// reported by Close; an event that cannot be encoded (a NaN or an
// infinity in a float field) writes nothing, and neither does any
// event after it. Emit after Close does nothing.
//
//outran:allocfree
func (s *JSONLSink) Emit(ev *Event) {
	c := s.cur
	if c == nil {
		return
	}
	c.evs[c.n] = *ev
	c.n++
	if c.n == chunkEvents {
		s.full <- c
		s.cur = <-s.free
	}
}

// Close writes and flushes every event emitted, stops the encoder,
// closes the writer when it is a closer, and reports the first error
// seen. A second Close returns the same error.
func (s *JSONLSink) Close() error {
	if s.cur == nil {
		return s.enc.err
	}
	s.sync()
	close(s.full)
	<-s.done
	s.cur, s.full, s.free, s.synced = nil, nil, nil, nil // release the chunks
	if s.c != nil {
		if cerr := s.c.Close(); s.enc.err == nil {
			s.enc.err = cerr
		}
	}
	return s.enc.err
}

// run is the encoder goroutine: it encodes each chunk's events in
// order, flushes after a sync chunk, and hands every chunk back.
func (e *jsonlEncoder) run(full <-chan *chunk, free, synced chan<- *chunk, done chan<- struct{}) {
	defer close(done)
	for c := range full {
		for i := range c.evs[:c.n] {
			e.write(&c.evs[i])
		}
		c.n = 0
		if !c.sync {
			free <- c
			continue
		}
		c.sync = false
		if ferr := e.w.Flush(); e.err == nil {
			e.err = ferr
		}
		synced <- c
	}
}

// write encodes one event; after the first error it writes nothing.
func (e *jsonlEncoder) write(ev *Event) {
	if e.err != nil {
		return
	}
	line, ok := e.memo.line(ev)
	if !ok {
		_, e.err = json.Marshal(ev) // the library's error for this event
		return
	}
	_, e.err = e.w.Write(line)
}

// ReadTrace decodes a JSONL trace one line at a time into s, skipping
// blank lines, and then closes s. A line that does not decode stops
// the read: s has taken every event before it, and the error names the
// line. The error is the read's, else the one Close returns.
func ReadTrace(r io.Reader, s Sink) error {
	var ev Event
	err := readLines(r, "trace", func(line []byte) error {
		ev = Event{}
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		s.Emit(&ev)
		return nil
	})
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// readLines hands each non-blank line of a JSONL stream to fn, in
// order. The first error fn returns stops the read and comes back
// naming the stream's own line, blank lines counted: "obs: <what> line
// <n>: <err>". fn must not keep line past its call.
func readLines(r io.Reader, what string, fn func(line []byte) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return err
		}
		if len(bytes.Trim(line, " \t\r\n")) > 0 {
			if err := fn(line); err != nil {
				return fmt.Errorf("obs: %s line %d: %w", what, n, err)
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}
