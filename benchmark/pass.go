package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/ran"
	"outran/internal/snapshot"
)

// env is what a run needs from its surroundings.
type env struct {
	workers int    // OS threads doing simulation work: min(2, nproc)
	scratch string // directory for the deployment's KPI stream and checkpoints
}

// passOpts selects one pass's variant of the workload.
type passOpts struct {
	sub     uint64
	sched   ran.SchedulerKind
	workers int  // deployment only; 0 = env.workers
	noTrace bool // cell-traced only: run with the event tracer off
	keepDir bool // deployment only: leave the KPI stream and checkpoints for the caller
}

// outcome is what one finished pass says about the simulated system
// (sim numbers: they repeat exactly for a seed) plus the host time it
// took.
type outcome struct {
	wallNs   float64 // Cell.Run(h.Total()) after Build, or deploy.Run
	cellTTIs uint64
	counters metrics.RunCounters
	short    metrics.Stats
	long     metrics.Stats
	digest   string

	cells []*ran.Cell    // the finished cells, still referenced
	res   *deploy.Result // deployment only
	dir   string         // deployment only, with keepDir

	traceEvents uint64 // cell-traced only
	traceBytes  int64

	kpiRecords int     // deployment only: records in the KPI stream
	ckptBytes  float64 // deployment only: mean size of the newest checkpoints
}

func (o outcome) nsPerCellTTI() float64 { return o.wallNs / float64(o.cellTTIs) }

// countSink counts the events the simulator emits on their way into
// the JSONL encoder.
type countSink struct {
	inner *obs.JSONLSink
	n     uint64
}

func (s *countSink) Emit(ev *obs.Event) { s.n++; s.inner.Emit(ev) }
func (s *countSink) Close() error       { return s.inner.Close() }

// attachTracer gives the harness the workload's event tracer, if it
// has one: JSONL encoding into an in-memory byte counter, no disk.
func attachTracer(w workloadDef, h *ran.Harness) *countSink {
	if !w.eventTrace {
		return nil
	}
	sink := &countSink{inner: obs.NewJSONLSink(io.Discard)}
	h.Tracer = obs.NewTracer(sink)
	return sink
}

// digestJSON is the SHA-256 of v's JSON encoding.
func digestJSON(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// cellDigest hashes a cell's run summary without its wall-clock
// phases section: equal digests mean every simulated statistic is
// identical.
func cellDigest(c *ran.Cell) (string, error) {
	s := c.Summary()
	s.Phases = nil
	return digestJSON(s)
}

// runPass executes one pass of the workload through the simulator's
// public entry points and times the run itself.
func runPass(w workloadDef, e env, o passOpts) (outcome, error) {
	if w.deployed() {
		return runDeployPass(w, e, o)
	}
	h := w.cellConfigs(o.sub, o.sched)[0]
	var sink *countSink
	if !o.noTrace {
		sink = attachTracer(w, &h)
	}
	cell, err := h.Build()
	if err != nil {
		return outcome{}, err
	}
	t0 := now()
	cell.Run(h.Total())
	out := outcome{wallNs: sinceNs(t0), cells: []*ran.Cell{cell}}
	if sink != nil {
		out.traceEvents, out.traceBytes = sink.n, sink.inner.BytesWritten()
		if err := sink.Close(); err != nil {
			return outcome{}, fmt.Errorf("event trace: %w", err)
		}
	}
	sum := cell.Summary()
	out.cellTTIs = sum.Counters.TTIs
	out.counters, out.short, out.long = sum.Counters, sum.FCTShort, sum.FCTLong
	out.digest, err = cellDigest(cell)
	return out, err
}

func runDeployPass(w workloadDef, e env, o passOpts) (outcome, error) {
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(e.scratch, w.name+"-")
	if err != nil {
		return outcome{}, err
	}
	if !o.keepDir {
		defer os.RemoveAll(dir)
	}
	workers := o.workers
	if workers == 0 {
		workers = e.workers
	}
	cfg := w.deployConfig(o.sub, o.sched, workers, dir)
	t0 := now()
	res, err := deploy.Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{wallNs: sinceNs(t0), cells: res.Live, res: res}
	if o.keepDir {
		out.dir = dir
	}
	if err := out.fromDeploy(res); err != nil {
		return outcome{}, err
	}
	if out.kpiRecords, err = checkKPIStream(w, cfg.KPIPath); err != nil {
		return outcome{}, err
	}
	out.ckptBytes, err = newestCheckpoints(cfg.Checkpoint.Dir, w.cells)
	return out, err
}

// fromDeploy fills the simulated outcome from a deployment result. The
// digest covers the per-cell summaries and the aggregate but not
// Result.Restores, which by design differs after a resume.
func (out *outcome) fromDeploy(res *deploy.Result) error {
	a := res.Aggregate
	out.cellTTIs = a.Counters.TTIs
	out.counters, out.short, out.long = a.Counters, a.FCTShort, a.FCTLong
	for i := range res.Cells {
		res.Cells[i].Summary.Phases = nil
	}
	var err error
	out.digest, err = digestJSON(struct {
		Cells     []deploy.CellResult
		Aggregate deploy.Summary
	}{res.Cells, a})
	return err
}

// setUp constructs every cell of the workload and schedules its
// traffic, serially — ran.Harness.Build once per cell — and returns the
// cells and the wall time. With schedule non-nil each cell's offered
// flow schedule is also written there as a workload trace.
func setUp(w workloadDef, sub uint64, schedule io.Writer) ([]*ran.Cell, float64, error) {
	hs := w.cellConfigs(sub, ran.SchedOutRAN)
	cells := make([]*ran.Cell, len(hs))
	t0 := now()
	for i, h := range hs {
		h.WorkloadTrace = schedule
		c, err := h.Build()
		if err != nil {
			return nil, 0, err
		}
		cells[i] = c
	}
	return cells, sinceNs(t0), nil
}

// workloadDigest hashes the flow schedule the workload offers at this
// sub-seed, captured through Harness.WorkloadTrace.
func workloadDigest(w workloadDef, sub uint64) (string, error) {
	h := sha256.New()
	if _, _, err := setUp(w, sub, h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// liveHeapMB is the heap still reachable after a collection, with keep
// (the finished cells) held live across it.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// newestCheckpoints opens every cell's newest checkpoint in dir with
// the public readers and returns the mean file size.
func newestCheckpoints(dir string, cells int) (meanBytes float64, err error) {
	total := int64(0)
	for i := 0; i < cells; i++ {
		path, at, err := deploy.LatestCheckpoint(dir, i)
		if err != nil {
			return 0, err
		}
		a, err := snapshot.ReadFile(path)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		meta, err := deploy.ReadCheckpointMeta(a)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		if meta.At != at {
			return 0, fmt.Errorf("%s: meta says %v, file name says %v", filepath.Base(path), meta.At, at)
		}
		st, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return float64(total) / float64(cells), nil
}
