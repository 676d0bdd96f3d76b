package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"outran/internal/sim"
)

// KPISchemaVersion is the current KPI record schema. Consumers must
// check it before interpreting fields.
const KPISchemaVersion = 1

// KPIRecord is one line of the KPI JSONL stream: the live-telemetry
// snapshot of one cell (or, with Cell == RollupCell, the whole
// deployment) at a sampling instant. All values derive exclusively
// from simulation state, so same-seed runs emit byte-identical
// streams regardless of worker count. "win_" fields cover the window
// since the previous sample; "cum_" fields cover the run so far.
type KPIRecord struct {
	V    int      `json:"v"`
	T    sim.Time `json:"t"`
	Cell int      `json:"cell"`

	// Flow completion times, streaming-quantile estimates in ms.
	WinFlows int64   `json:"win_flows"`
	WinP50Ms float64 `json:"win_p50_ms"`
	WinP99Ms float64 `json:"win_p99_ms"`
	CumFlows int64   `json:"cum_flows"`
	CumP50Ms float64 `json:"cum_p50_ms"`
	CumP99Ms float64 `json:"cum_p99_ms"`

	// Window spectral efficiency (bit/s/Hz) and Jain fairness over
	// the users' long-term average throughputs.
	SE       float64 `json:"se"`
	Fairness float64 `json:"fairness"`

	// Load: flows currently in flight and RLC queue backlog per MLFQ
	// priority level (bytes, index 0 = highest priority).
	ActiveFlows int     `json:"active_flows"`
	QueueBytes  []int64 `json:"queue_bytes"`

	// HARQ activity in the window: transport blocks sent, of which
	// retransmissions, and the retx fraction.
	WinHARQTx    int64   `json:"win_harq_tx"`
	WinHARQRetx  int64   `json:"win_harq_retx"`
	HARQRetxRate float64 `json:"harq_retx_rate"`

	// ε-relaxation activity in the window: RB decisions, summed
	// relative metric sacrifice (§5.4) and the per-decision mean.
	WinDecisions int64   `json:"win_decisions"`
	WinSacSum    float64 `json:"win_sacrifice_sum"`
	Sacrifice    float64 `json:"sacrifice"`
}

// RollupCell is the Cell value of a deployment roll-up record.
const RollupCell = -1

// KPISample is one cell's sampling result: the emitted record plus
// the mergeable state a deployment roll-up needs. Win and Cum are
// borrowed references into the cell's KPI state — Win stays valid
// until the cell's next sample, Cum for the cell's lifetime; callers
// aggregate immediately and must not retain them.
type KPISample struct {
	Rec KPIRecord

	Win *Histogram // window FCT histogram (ms)
	Cum *Histogram // cumulative FCT histogram (ms)

	// Raw Jain moments over per-user throughputs, and the cell's
	// bandwidth for SE weighting.
	FairSum     float64
	FairSumSq   float64
	FairN       int
	BandwidthHz float64
}

// KPIBuckets returns the bucket layout (ms upper bounds) every KPI
// FCT histogram uses: 2^(1/8) growth from 0.25 ms to ~100 s. All KPI
// histograms share it so cross-cell Merge always succeeds.
func KPIBuckets() []float64 {
	return ExpBuckets(0.25, 1.0905077326652577, 150)
}

// AggregateKPI folds per-cell samples (in cell order) into the
// deployment roll-up record: counts and queue depths sum, FCT
// quantiles come from merged histograms, SE is bandwidth-weighted,
// and fairness is Jain's index over the union of every cell's user
// population (summed raw moments) — not a mean of per-cell indices.
func AggregateKPI(t sim.Time, samples []KPISample) KPIRecord {
	out := KPIRecord{V: KPISchemaVersion, T: t, Cell: RollupCell}
	if len(samples) == 0 {
		out.Fairness = 1
		return out
	}
	win := NewHistogram(samples[0].Win.Bounds())
	cum := NewHistogram(samples[0].Cum.Bounds())
	var fairSum, fairSumSq, seWeighted, bwTotal float64
	var fairN int
	for _, s := range samples {
		// Shared KPIBuckets layout: Merge cannot fail.
		win.Merge(s.Win) //nolint:errcheck
		cum.Merge(s.Cum) //nolint:errcheck
		out.WinFlows += s.Rec.WinFlows
		out.CumFlows += s.Rec.CumFlows
		out.ActiveFlows += s.Rec.ActiveFlows
		out.WinHARQTx += s.Rec.WinHARQTx
		out.WinHARQRetx += s.Rec.WinHARQRetx
		out.WinDecisions += s.Rec.WinDecisions
		out.WinSacSum += s.Rec.WinSacSum
		for i, b := range s.Rec.QueueBytes {
			if i >= len(out.QueueBytes) {
				out.QueueBytes = append(out.QueueBytes, 0)
			}
			out.QueueBytes[i] += b
		}
		fairSum += s.FairSum
		fairSumSq += s.FairSumSq
		fairN += s.FairN
		seWeighted += s.Rec.SE * s.BandwidthHz
		bwTotal += s.BandwidthHz
	}
	out.WinP50Ms = win.Quantile(0.50)
	out.WinP99Ms = win.Quantile(0.99)
	out.CumP50Ms = cum.Quantile(0.50)
	out.CumP99Ms = cum.Quantile(0.99)
	if bwTotal > 0 {
		out.SE = seWeighted / bwTotal
	}
	out.Fairness = 1
	if fairSumSq != 0 {
		out.Fairness = fairSum * fairSum / (float64(fairN) * fairSumSq)
	}
	if out.WinHARQTx > 0 {
		out.HARQRetxRate = float64(out.WinHARQRetx) / float64(out.WinHARQTx)
	}
	if out.WinDecisions > 0 {
		out.Sacrifice = out.WinSacSum / float64(out.WinDecisions)
	}
	return out
}

// KPISampler owns a KPI JSONL stream: the offset-tracked writer.
// Sampling itself is driven externally by the run loop (the deploy
// runtime's barriers) so the instants are identical across worker
// counts and across a checkpoint/restore boundary.
type KPISampler struct {
	w   *bufio.Writer
	cw  *countingWriter
	c   io.Closer
	enc *json.Encoder
	err error
}

// NewKPISampler wraps a writer (closed by Close when it is an
// io.Closer).
func NewKPISampler(w io.Writer) *KPISampler {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	s := &KPISampler{w: bw, cw: cw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit appends one record to the stream. The first error sticks.
func (s *KPISampler) Emit(rec *KPIRecord) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(rec)
}

// Offset flushes and returns the exact byte offset of the stream —
// recorded per checkpoint so a resumed run can truncate back to it
// and re-emit the suffix byte-identically (same rule as the trace).
func (s *KPISampler) Offset() int64 {
	if ferr := s.w.Flush(); s.err == nil {
		s.err = ferr
	}
	return s.cw.n
}

// Close flushes and reports the first error seen.
func (s *KPISampler) Close() error {
	if ferr := s.w.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// ReadKPI decodes a KPI JSONL stream into its records (ScanKPI). On an
// error the records before the failing line come back with it.
func ReadKPI(r io.Reader) ([]KPIRecord, error) {
	var out []KPIRecord
	err := ScanKPI(r, func(rec KPIRecord) { out = append(out, rec) })
	return out, err
}

// ScanKPI decodes a KPI JSONL stream one line at a time, skipping blank
// lines, and hands each record to fn in order. A line that does not
// decode to one record of the current schema stops the read with an
// error that names the line.
func ScanKPI(r io.Reader, fn func(KPIRecord)) error {
	return readLines(r, "kpi", func(line []byte) error {
		var rec KPIRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.V != KPISchemaVersion {
			return fmt.Errorf("schema v%d, want v%d", rec.V, KPISchemaVersion)
		}
		fn(rec)
		return nil
	})
}
