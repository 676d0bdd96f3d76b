package deploy

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

// CheckpointConfig enables periodic deployment checkpointing: every
// Every of simulation time, each cell's complete state is written
// atomically (temp file + rename) to Dir, and only the newest Retain
// files per cell are kept. A checkpointed run can be killed and
// resumed (Resume, outran-sim -resume) with byte-identical results.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every is the checkpoint period in simulation time (default 1 s).
	Every sim.Time
	// Retain bounds how many checkpoint files each cell keeps (default
	// 2 — the latest plus one behind, so a crash mid-write of the
	// newest never strands the deployment without a usable file).
	Retain int
}

// Enabled reports whether checkpointing is on.
func (cc CheckpointConfig) Enabled() bool { return cc.Dir != "" }

// WithDefaults fills the zero fields with the documented defaults.
func (cc CheckpointConfig) WithDefaults() CheckpointConfig {
	if cc.Every <= 0 {
		cc.Every = sim.Second
	}
	if cc.Retain <= 0 {
		cc.Retain = 2
	}
	return cc
}

// Times returns the checkpoint instants in (0, total), ascending.
func (cc CheckpointConfig) Times(total sim.Time) []sim.Time {
	var out []sim.Time
	for t := cc.Every; t < total; t += cc.Every {
		out = append(out, t)
	}
	return out
}

// The checkpoint archive carries the cell's own sections (see
// ran.Cell.SnapshotTo) plus one deployment section: the cell's trace
// offset and the deployment-level handover counters as of the write.
const (
	deploySection = "deploy"
	tagDeploy     = 0x4d01
)

// CheckpointMeta is the deployment section of a checkpoint file.
type CheckpointMeta struct {
	// At is the simulation instant the checkpoint was taken.
	At sim.Time
	// TraceOffset is the cell's JSONL trace size in bytes at the
	// checkpoint, or -1 when the cell was not tracing. A resumed run
	// truncates the trace file back to it so the continuation appends
	// the exact suffix the uninterrupted run would have written.
	TraceOffset int64
	// HandoversApplied and FlowsTransferred are the deployment-level
	// counters at the checkpoint (identical across cells at a barrier).
	HandoversApplied int
	FlowsTransferred int
	// KPIOffset is the KPI JSONL stream size in bytes at the
	// checkpoint, or -1 when the run emitted no KPI stream. KPI
	// sampling happens before checkpoint writes at a shared barrier, so
	// the offset includes the barrier's own records; a resumed run
	// truncates the stream back to it and re-emits the exact suffix.
	KPIOffset int64
}

// walk is the deployment section's layout.
func (m *CheckpointMeta) walk(w *snapshot.Walker) {
	w.Mark(tagDeploy)
	snapshot.I64(w, &m.At)
	w.I64(&m.TraceOffset)
	w.Int(&m.HandoversApplied)
	w.Int(&m.FlowsTransferred)
	w.I64(&m.KPIOffset)
}

// ReadCheckpointMeta decodes the deployment section of a checkpoint.
func ReadCheckpointMeta(a *snapshot.Archive) (CheckpointMeta, error) {
	var m CheckpointMeta
	if err := a.Walk(deploySection, m.walk); err != nil {
		return CheckpointMeta{}, fmt.Errorf("deploy: checkpoint meta: %w", err)
	}
	return m, nil
}

// checkpointer writes one cell's periodic checkpoints and surfaces
// the checkpoint cadence, latest snapshot size and write count as
// registry instruments in the cell's RunSummary.
type checkpointer struct {
	dir    string
	cell   int
	every  sim.Time
	retain int

	c           *ran.Cell
	writes      *obs.Counter
	bytes       *obs.Gauge
	traceOffset func() int64 // nil when the cell is not tracing

	files []string // retained checkpoint paths, oldest first
	// b is reused by every write: an archive is encoded into the buffer
	// the last one left, so a steady run stops allocating it.
	b snapshot.Builder
}

// newCheckpointer builds a checkpointer for one cell index.
func newCheckpointer(cc CheckpointConfig, cell int) *checkpointer {
	cc = cc.WithDefaults()
	return &checkpointer{dir: cc.Dir, cell: cell, every: cc.Every, retain: cc.Retain}
}

// attach binds the checkpointer to its cell, registers the checkpoint
// instruments, and takes over the cell's files in the checkpoint
// directory: those taken at or before keep are this lineage's and count
// toward Retain (so retention keeps counting across a resume); newer
// ones are removed. A fresh run passes keep = -1 and so starts with
// none — files an earlier run left must never pass for its own. A
// resume passes its restore instant: a cell that was "a file ahead" at
// kill time still carries checkpoints its resumed lineage never
// produced and re-writes. traceOffset, when non-nil, reports the
// cell's absolute trace size in bytes (obs.JSONLSink.BytesWritten plus
// any resumed-from base).
func (ck *checkpointer) attach(c *ran.Cell, traceOffset func() int64, keep sim.Time) error {
	ck.c = c
	ck.traceOffset = traceOffset
	c.Reg.Gauge("checkpoint_period_s").Set(ck.every.Seconds())
	ck.writes = c.Reg.Counter("checkpoint_writes")
	ck.bytes = c.Reg.Gauge("checkpoint_bytes")
	files, err := checkpointFiles(ck.dir, ck.cell)
	if err != nil {
		return err
	}
	ck.files = files[:0]
	for _, f := range files {
		t, err := checkpointTime(f)
		if err != nil {
			return err
		}
		if t > keep {
			if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("deploy: removing stale checkpoint: %w", err)
			}
			continue
		}
		ck.files = append(ck.files, f)
	}
	return nil
}

// write takes one checkpoint at the current simulation time. The
// write counter is bumped BEFORE encoding, so the k-th checkpoint
// records k writes and a run resumed from it reaches the same final
// count as an uninterrupted one. The size gauge is set after the
// write to the finished file's size; restores overwrite it the same
// way (restore), so it always reads "bytes of the latest checkpoint
// in this cell's lineage" in every incarnation.
//
// kpiOff is the KPI stream's byte offset as of this barrier, or -1
// when the run emits no KPI stream. It is passed by value (not read
// through a callback like the trace offset) because the KPI stream is
// shared by all cells and must be captured once, before the per-cell
// checkpoint writes fan out.
func (ck *checkpointer) write(handovers, flowsTransferred int, kpiOff int64) error {
	now := ck.c.Eng.Now()
	ck.writes.Inc()
	b := &ck.b
	b.Reset()
	if err := ck.c.SnapshotTo(b); err != nil {
		return fmt.Errorf("deploy: checkpoint cell %d at %v: %w", ck.cell, now, err)
	}
	meta := CheckpointMeta{At: now, TraceOffset: -1, HandoversApplied: handovers, FlowsTransferred: flowsTransferred, KPIOffset: kpiOff}
	if ck.traceOffset != nil {
		meta.TraceOffset = ck.traceOffset()
	}
	b.Walk(deploySection, meta.walk)

	data := b.Bytes()
	path := checkpointPath(ck.dir, ck.cell, now)
	if err := snapshot.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("deploy: checkpoint cell %d at %v: %w", ck.cell, now, err)
	}
	ck.bytes.Set(float64(len(data)))
	// Emitted after the offset capture above, so a restore that
	// truncates back to the offset re-emits exactly this event.
	ck.c.Tracer().Emit(obs.Event{T: now, Type: obs.EvCheckpoint, Size: int64(len(data)), Sent: int64(ck.writes.Value())})
	// A rewrite of an instant already on disk (a resumed run replaying
	// a barrier a pre-crash incarnation had written) must not count the
	// file toward retention twice: a duplicate list entry would make the
	// positional prune below os.Remove a path a later entry still
	// references, silently shrinking the on-disk set under Retain.
	for i, f := range ck.files {
		if f == path {
			ck.files = append(ck.files[:i], ck.files[i+1:]...)
			break
		}
	}
	ck.files = append(ck.files, path)
	for len(ck.files) > ck.retain {
		if err := os.Remove(ck.files[0]); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("deploy: pruning checkpoint: %w", err)
		}
		ck.files = ck.files[1:]
	}
	return nil
}

// restore rebuilds the cell from its checkpoint at the given instant:
// fresh construction from cfg (which must match the snapshotted run's
// — the archive's config fingerprint is cross-checked), trace file
// truncated back to the checkpoint's offset (tracePath "" = not
// tracing), snapshot overlaid, checkpointer bound to the result. The
// restored cell continues byte-identically to the original.
func (ck *checkpointer) restore(cfg ran.Config, at sim.Time, tracePath string) (*ran.Cell, *traceFile, CheckpointMeta, error) {
	path := checkpointPath(ck.dir, ck.cell, at)
	a, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, nil, CheckpointMeta{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, CheckpointMeta{}, err
	}
	meta, err := ReadCheckpointMeta(a)
	if err != nil {
		return nil, nil, CheckpointMeta{}, err
	}
	if meta.At != at {
		return nil, nil, CheckpointMeta{}, fmt.Errorf("deploy: %s: checkpoint taken at %v, filename says %v", path, meta.At, at)
	}
	c, err := ran.NewCell(cfg)
	if err != nil {
		return nil, nil, CheckpointMeta{}, err
	}
	var tf *traceFile
	var off func() int64
	if tracePath != "" {
		tf, err = openTraceFile(tracePath, true, meta.TraceOffset)
		if err != nil {
			return nil, nil, CheckpointMeta{}, err
		}
		c.SetTracerResumed(tf.Tracer())
		off = tf.Offset
	}
	if err := ck.attach(c, off, at); err != nil {
		return nil, tf, CheckpointMeta{}, err
	}
	if err := c.RestoreSnapshot(a); err != nil {
		return nil, tf, CheckpointMeta{}, err
	}
	// The metrics section carried the gauge as of one write earlier;
	// re-anchor it to the file actually restored from, which is the
	// value the uninterrupted run holds at this instant.
	ck.bytes.Set(float64(st.Size()))
	// Re-emit the restored-from checkpoint's trace event: the trace
	// was truncated to the offset captured just before the original
	// emission, and the write counter came back from the snapshot.
	c.Tracer().Emit(obs.Event{T: meta.At, Type: obs.EvCheckpoint, Size: st.Size(), Sent: int64(ck.writes.Value())})
	return c, tf, meta, nil
}

// checkpointPath names cell's checkpoint at the given instant. The
// nanosecond timestamp is zero-padded so lexical order is time order.
func checkpointPath(dir string, cell int, at sim.Time) string {
	return filepath.Join(dir, fmt.Sprintf("cell%d-%019d.ckpt", cell, int64(at)))
}

// checkpointFiles lists cell's checkpoint files in dir, oldest first.
func checkpointFiles(dir string, cell int) ([]string, error) {
	pattern := filepath.Join(dir, fmt.Sprintf("cell%d-*.ckpt", cell))
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("deploy: listing checkpoints: %w", err)
	}
	sort.Strings(files)
	return files, nil
}

// LatestCheckpoint returns the newest checkpoint file for the cell
// and its timestamp. A missing checkpoint is an error: the caller
// asked to resume a run that never checkpointed this cell.
func LatestCheckpoint(dir string, cell int) (string, sim.Time, error) {
	files, err := checkpointFiles(dir, cell)
	if err != nil {
		return "", 0, err
	}
	if len(files) == 0 {
		return "", 0, fmt.Errorf("deploy: no checkpoint for cell %d in %s", cell, dir)
	}
	path := files[len(files)-1]
	at, err := checkpointTime(path)
	if err != nil {
		return "", 0, err
	}
	return path, at, nil
}

// checkpointTime parses the timestamp out of a checkpoint filename.
func checkpointTime(path string) (sim.Time, error) {
	base := filepath.Base(path)
	var cell int
	var ns int64
	if _, err := fmt.Sscanf(base, "cell%d-%d.ckpt", &cell, &ns); err != nil {
		return 0, fmt.Errorf("deploy: malformed checkpoint name %q: %w", base, err)
	}
	return sim.Time(ns), nil
}

// openOutput opens a runtime-owned output file. A fresh run creates
// it; a resumed run reopens it truncated back to off, the checkpoint's
// offset, and appends from there — re-emitting exactly the suffix the
// uninterrupted run would have written. what names the file in errors;
// missing is the error's reason when a resume has no offset (off < 0).
func openOutput(what, path string, resume bool, off int64, missing string) (*os.File, error) {
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("deploy: %s: %w", what, err)
		}
		return f, nil
	}
	if off < 0 {
		return nil, fmt.Errorf("deploy: %s %s: checkpoint has no %s", what, path, missing)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("deploy: %s: %w", what, err)
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("deploy: truncating %s %s to %d: %w", what, path, off, err)
	}
	return f, nil
}

// traceFile is a runtime-owned JSONL trace file — the form of tracing
// that supports resume, because the runtime can truncate the file back
// to a checkpoint's offset and append the continuation.
type traceFile struct {
	sink   *obs.JSONLSink
	tracer *obs.Tracer
	base   int64 // bytes present before this sink's writes
}

// openTraceFile starts a trace file, or resumes one at off (openOutput).
func openTraceFile(path string, resume bool, off int64) (*traceFile, error) {
	f, err := openOutput("trace", path, resume, off, "trace offset (original run was not tracing)")
	if err != nil {
		return nil, err
	}
	sink := obs.NewJSONLSink(f)
	return &traceFile{sink: sink, tracer: obs.NewTracer(sink), base: off}, nil
}

// Tracer returns the tracer bound to this file (install via
// ran.Harness.Tracer or ran.Cell.SetTracerResumed).
func (tf *traceFile) Tracer() *obs.Tracer { return tf.tracer }

// Offset returns the absolute trace size in bytes (drains the encoder
// and flushes first).
func (tf *traceFile) Offset() int64 { return tf.base + tf.sink.BytesWritten() }

// Close flushes and closes the file.
func (tf *traceFile) Close() error { return tf.sink.Close() }

// kpiFile is the runtime-owned KPI JSONL stream — traceFile's sibling
// for live telemetry. One file serves the whole deployment (records
// carry the cell index), so checkpoints record its offset by value
// rather than through per-cell callbacks.
type kpiFile struct {
	sampler *obs.KPISampler
	base    int64 // bytes present before this sampler's writes
}

// openKPIFile starts a KPI stream, or resumes one at off (openOutput).
func openKPIFile(path string, resume bool, off int64) (*kpiFile, error) {
	f, err := openOutput("kpi", path, resume, off, "KPI offset (original run emitted no KPI stream)")
	if err != nil {
		return nil, err
	}
	return &kpiFile{sampler: obs.NewKPISampler(f), base: off}, nil
}

// Emit appends one record to the stream.
func (kf *kpiFile) Emit(rec *obs.KPIRecord) { kf.sampler.Emit(rec) }

// Offset returns the absolute stream size in bytes (flushes first).
func (kf *kpiFile) Offset() int64 { return kf.base + kf.sampler.Offset() }

// Close flushes and closes the file.
func (kf *kpiFile) Close() error { return kf.sampler.Close() }
