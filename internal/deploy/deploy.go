// Package deploy is the multi-cell deployment runtime: it instantiates
// N ran.Cells — each with its own sim.Engine, a per-cell seed derived
// from one master stream, and its own Poisson workload — executes them
// across a bounded worker pool, and aggregates the per-cell results
// into one deployment-level summary.
//
// Determinism contract: every cell is a self-contained single-threaded
// simulation; the pool only decides which cells run concurrently, never
// what any cell computes. Per-cell seeds are drawn in cell order before
// any goroutine starts, results land in index-addressed slots, and all
// aggregation folds in cell order after the pool drains — so a
// deployment run on 1 worker and on GOMAXPROCS workers produces
// byte-identical per-cell summaries and traces (gated in deploy_test.go
// and, through the CLI, in cmd/outran-sim's tests).
//
// Inter-cell handover rides on the §7 flow-state transfer: the run is
// phased at the scripted handover instants; at each barrier every
// engine has advanced to exactly the handover time, the source cell
// exports the migrating UE's per-flow sent-bytes table (41 bytes per
// flow) and the target imports it, re-anchoring the MLFQ priorities of
// the transferred flows at the target cell.
//
// Checkpointing extends the same barrier structure: with
// Config.Checkpoint set, every cell snapshots at each checkpoint
// instant (atomic rename-into-place, newest Retain files kept). A
// killed run resumes with Resume, and the per-cell summaries and traces
// are byte-identical to an uninterrupted run's, because cell
// restoration is byte-exact (see ran.Cell.RestoreSnapshot). Resume is
// the only recovery: an unrecovered panic in any cell's goroutine ends
// the whole process, so no cell can fail while the others run on.
package deploy

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/pdcp"
	"outran/internal/ran"
	"outran/internal/rng"
	"outran/internal/sim"
)

// Handover scripts one UE migration between two live cells.
type Handover struct {
	// At is the simulation instant of the transfer. It must fall
	// inside the run horizon; every cell's clock is advanced to
	// exactly At before the transfer happens.
	At sim.Time
	// UE is the UE index at both the source and the target cell.
	UE int
	// From and To are deployment cell indices.
	From, To int
	// ContinueBytes, when > 0, starts a recorded continuation flow of
	// this many bytes at the target on each transferred five-tuple —
	// the migrated UE's traffic resuming at the target, classified
	// from the imported sent-bytes state (demoted flows stay demoted).
	ContinueBytes int64
}

// Config describes one deployment run. It is plain data: the runtime
// derives every per-cell choice (seed, FCT recorder, file names) from
// it by fixed rules, so a run description can be printed and compared.
type Config struct {
	// Cells is the number of cells (default 1).
	Cells int
	// Workers bounds how many cells execute concurrently; <= 0 means
	// GOMAXPROCS. The worker count never changes results.
	Workers int
	// Cell is the per-cell base configuration; each cell gets a copy
	// with its own seed. Its Workload spec declares the traffic every
	// cell offers; a replayed Workload.TraceFile is per cell like the
	// output paths below. A deployment of two or more cells always
	// streams FCTs (~16 KB per cell regardless of flow count, which is
	// what makes city-scale cell counts fit in memory); one cell keeps
	// Cell.StreamFCT.
	Cell ran.Config
	// Warmup/Window/Tail/Drain is the shared measurement methodology
	// (ran.Harness fields of the same names).
	Warmup, Window, Tail, Drain sim.Time
	// Seed is the deployment seed; 0 falls back to Cell.Seed. One cell
	// runs on it itself; N cells run on draws from a master stream
	// seeded with it (1 if it is 0), in cell order.
	Seed uint64
	// Handovers scripts inter-cell UE migrations, applied in script
	// order at each shared instant.
	Handovers []Handover
	// TracePath, when non-empty, gives each cell a runtime-owned JSONL
	// trace file, installed before the cell's first event: one cell
	// writes the path as given, N cells name.cellN.ext. The runtime
	// owns the file so that on resume it can truncate it back to the
	// checkpoint's offset and let the continuation append the exact
	// suffix an uninterrupted run would have written.
	TracePath string
	// Profile installs a wall-clock phase profiler on every cell, on
	// build and on every restore. Host timing: it fills
	// RunSummary.Phases and touches no trace, KPI record or checkpoint.
	Profile bool
	// WorkloadTracePath, when non-empty, writes each cell's workload
	// trace (per-cell names as for TracePath): the exact flow schedule
	// the cell offered, written during build as a versioned JSONL trace
	// (workload.TraceWriter). Replaying it via Cell.Workload.TraceFile
	// reproduces the run byte-identically.
	WorkloadTracePath string
	// KPIPath, when non-empty, writes the live KPI stream to this JSONL
	// file: one record per cell per sampling instant (in cell order)
	// followed, when Cells > 1, by one deployment roll-up record
	// (Cell == -1). Requires Cell.KPIEvery > 0, the cadence. The
	// stream derives only from simulation state, so same-seed runs
	// produce byte-identical files for any worker count, and
	// kill-and-resume re-emits the exact suffix.
	KPIPath string
	// Checkpoint enables periodic checkpointing (see CheckpointConfig).
	Checkpoint CheckpointConfig
}

// CellResult is one cell's contribution to the deployment result.
type CellResult struct {
	Cell    int                `json:"cell"`
	Summary metrics.RunSummary `json:"summary"`
}

// Summary is the deployment-level aggregate: counters summed, mean
// metrics averaged over cells, FCT distributions merged from every
// cell's samples (in cell order).
type Summary struct {
	Cells            int                 `json:"cells"`
	Seed             uint64              `json:"seed"`
	HandoversApplied int                 `json:"handovers_applied"`
	FlowsTransferred int                 `json:"flows_transferred"`
	Counters         metrics.RunCounters `json:"counters"`
	FCTOverall       metrics.Stats       `json:"fct_overall"`
	FCTShort         metrics.Stats       `json:"fct_short"`
	FCTMedium        metrics.Stats       `json:"fct_medium"`
	FCTLong          metrics.Stats       `json:"fct_long"`
}

// Result bundles everything a deployment run produces.
type Result struct {
	Cells     []CellResult `json:"cells"`
	Aggregate Summary      `json:"aggregate"`

	// Restores counts the cells Resume restored from checkpoints (0 for
	// Run). Deliberately NOT part of the aggregate Summary or any cell's
	// RunSummary: a resumed run's summaries must be byte-identical to an
	// uninterrupted run's.
	Restores int `json:"restores"`

	// Live exposes the finished cells (tests, ad-hoc inspection).
	Live []*ran.Cell `json:"-"`
}

// runState is one deployment execution in flight.
type runState struct {
	cfg   Config
	n     int
	seed  uint64
	seeds []uint64
	total sim.Time

	cells  []*ran.Cell
	traces []*traceFile
	cks    []*checkpointer
	ckAt   map[sim.Time]bool

	// KPI sampling schedule (multiples of Cell.KPIEvery up to and
	// including the horizon) and the deployment-level output stream
	// (nil when KPIPath is empty — the cells are still sampled so the
	// windowed state evolves identically with or without a file).
	kpiAt   map[sim.Time]bool
	kpiFile *kpiFile
	kpiBuf  []obs.KPISample // per-barrier scratch, cell order

	res *Result
}

// Run executes the deployment from time zero and returns the per-cell
// and aggregate results.
func Run(cfg Config) (*Result, error) {
	rs, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer rs.closeOutputs()
	if err := rs.build(); err != nil {
		return nil, err
	}
	if rs.cfg.KPIPath != "" {
		rs.kpiFile, err = openKPIFile(rs.cfg.KPIPath, false, 0)
		if err != nil {
			return nil, err
		}
	}
	if err := rs.loop(0); err != nil {
		return nil, err
	}
	if err := rs.closeOutputs(); err != nil {
		return nil, err
	}
	return rs.finish()
}

// Resume continues a checkpointed deployment that was killed: every
// cell restores from the newest checkpoint instant all cells share,
// trace files are truncated back to that instant's offsets, and the
// run continues to the horizon. The caller passes the SAME Config the
// original run used (cell configs are cross-checked against the
// snapshots' fingerprints; the workload comes back from the snapshots
// themselves). The results are byte-identical to the uninterrupted
// run's.
func Resume(cfg Config) (*Result, error) {
	rs, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if !rs.cfg.Checkpoint.Enabled() {
		return nil, fmt.Errorf("deploy: Resume requires Checkpoint.Dir")
	}
	defer rs.closeOutputs()
	from, kpiOff, err := rs.restore()
	if err != nil {
		return nil, err
	}
	if rs.cfg.KPIPath != "" {
		rs.kpiFile, err = openKPIFile(rs.cfg.KPIPath, true, kpiOff)
		if err != nil {
			return nil, err
		}
	}
	if err := rs.loop(from); err != nil {
		return nil, err
	}
	if err := rs.closeOutputs(); err != nil {
		return nil, err
	}
	return rs.finish()
}

// prepare validates the configuration and derives the per-cell seeds.
func prepare(cfg Config) (*runState, error) {
	n := cfg.Cells
	if n <= 0 {
		n = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Cell.Seed
	}
	cfg.Checkpoint = cfg.Checkpoint.WithDefaults()
	total := cfg.Warmup + cfg.Window + cfg.Tail + cfg.Drain
	if total <= 0 {
		return nil, fmt.Errorf("deploy: zero run horizon (set Window and Drain)")
	}
	ckOn := cfg.Checkpoint.Enabled()
	if ckOn {
		if err := os.MkdirAll(cfg.Checkpoint.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("deploy: checkpoint dir: %w", err)
		}
	}
	if cfg.KPIPath != "" && cfg.Cell.KPIEvery <= 0 {
		return nil, fmt.Errorf("deploy: KPIPath requires Cell.KPIEvery > 0")
	}
	for i, h := range cfg.Handovers {
		switch {
		case h.From < 0 || h.From >= n:
			return nil, fmt.Errorf("deploy: handover %d: source cell %d outside [0,%d)", i, h.From, n)
		case h.To < 0 || h.To >= n:
			return nil, fmt.Errorf("deploy: handover %d: target cell %d outside [0,%d)", i, h.To, n)
		case h.From == h.To:
			return nil, fmt.Errorf("deploy: handover %d: source and target are both cell %d", i, h.From)
		case h.UE < 0:
			return nil, fmt.Errorf("deploy: handover %d: negative UE %d", i, h.UE)
		case h.At <= 0 || h.At >= total:
			return nil, fmt.Errorf("deploy: handover %d: time %v outside (0,%v)", i, h.At, total)
		case ckOn && h.ContinueBytes > 0:
			return nil, fmt.Errorf("deploy: handover %d: ContinueBytes needs a persistent connection, which checkpointing cannot serialise", i)
		}
	}

	// One cell runs on the deployment seed itself. N cells draw theirs
	// from one master stream, in cell order, before any parallel work:
	// the worker count cannot perturb them.
	seeds := []uint64{seed}
	if n > 1 {
		if seed == 0 {
			seed = 1
		}
		master := rng.New(seed)
		seeds = make([]uint64, n)
		for i := range seeds {
			seeds[i] = master.Uint64()
		}
	}
	rs := &runState{
		cfg:    cfg,
		n:      n,
		seed:   seed,
		seeds:  seeds,
		total:  total,
		cells:  make([]*ran.Cell, n),
		traces: make([]*traceFile, n),
		cks:    make([]*checkpointer, n),
		ckAt:   make(map[sim.Time]bool),
		res:    &Result{},
	}
	if ckOn {
		for _, t := range cfg.Checkpoint.Times(total) {
			rs.ckAt[t] = true
		}
	}
	if every := cfg.Cell.KPIEvery; every > 0 {
		rs.kpiAt = make(map[sim.Time]bool)
		for t := every; t <= total; t += every {
			rs.kpiAt[t] = true
		}
		rs.kpiBuf = make([]obs.KPISample, 0, n)
	}
	return rs, nil
}

// cellConfig derives cell i's effective configuration: its seed, its
// replayed workload trace, and the streaming FCT recorder every cell of
// a multi-cell deployment uses. The same derivation runs on build and
// restore, so checkpoint fingerprints agree.
func (rs *runState) cellConfig(i int) ran.Config {
	ccfg := rs.cfg.Cell.WithSeed(rs.seeds[i])
	ccfg.Workload.TraceFile = rs.cellPath(ccfg.Workload.TraceFile, i)
	if rs.n > 1 {
		ccfg.StreamFCT = true
	}
	return ccfg
}

// cellPath names cell i's file of a per-cell path: one cell uses the
// path as given, N cells name.cellN.ext ("" stays "").
func (rs *runState) cellPath(path string, i int) string {
	if path == "" || rs.n == 1 {
		return path
	}
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.cell%d%s", strings.TrimSuffix(path, ext), i, ext)
}

// build constructs every cell from scratch (cell construction is
// itself deterministic and index-isolated, so it parallelizes like
// the run does).
func (rs *runState) build() error {
	err := ForEach(rs.n, rs.cfg.Workers, func(i int) error {
		h := ran.Harness{
			Config: rs.cellConfig(i),
			Warmup: rs.cfg.Warmup,
			Window: rs.cfg.Window,
			Tail:   rs.cfg.Tail,
			Drain:  rs.cfg.Drain,
		}
		if path := rs.cellPath(rs.cfg.TracePath, i); path != "" {
			tf, err := openTraceFile(path, false, 0)
			if err != nil {
				return err
			}
			rs.traces[i] = tf
			h.Tracer = tf.Tracer()
		}
		// The workload trace is fully written during Build (the harness
		// walks the whole schedule into it before the cell pulls its
		// first flow), so the file closes here — no lifetime to manage
		// across the run.
		var wt *os.File
		if path := rs.cellPath(rs.cfg.WorkloadTracePath, i); path != "" {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("workload trace: %w", err)
			}
			wt = f
			h.WorkloadTrace = f
		}
		cell, err := h.Build()
		if wt != nil {
			if cerr := wt.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("workload trace: %w", cerr)
			}
		}
		if err != nil {
			return err
		}
		rs.cells[i] = cell
		if rs.cfg.Profile {
			cell.SetPhaseProfiler(obs.NewPhaseProfiler())
		}
		if rs.cfg.Checkpoint.Enabled() {
			ck := newCheckpointer(rs.cfg.Checkpoint, i)
			var off func() int64
			if rs.traces[i] != nil {
				off = rs.traces[i].Offset
			}
			// A fresh run owns no earlier checkpoints: -1 removes any an
			// earlier run left for this cell before the first write.
			if err := ck.attach(cell, off, -1); err != nil {
				return err
			}
			rs.cks[i] = ck
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("deploy: build cell: %w", err)
	}
	return nil
}

// restore rebuilds every cell from the newest checkpoint instant all
// cells share and returns that instant plus the KPI stream offset the
// checkpoint recorded (-1 when the run emitted none).
func (rs *runState) restore() (sim.Time, int64, error) {
	// Cells checkpoint at the same barrier instants, but a kill can
	// land mid-barrier: some cells one file ahead. Resume from the
	// newest instant every cell has (Retain >= 2 keeps it on disk).
	var from sim.Time
	for i := 0; i < rs.n; i++ {
		_, at, err := LatestCheckpoint(rs.cfg.Checkpoint.Dir, i)
		if err != nil {
			return 0, -1, err
		}
		if i == 0 || at < from {
			from = at
		}
	}
	if from >= rs.total {
		return 0, -1, fmt.Errorf("deploy: newest shared checkpoint at %v is not before the run's horizon %v (resuming with a shorter run than the original?)", from, rs.total)
	}
	kpiOff := int64(-1)
	err := ForEach(rs.n, rs.cfg.Workers, func(i int) error {
		meta, err := rs.restoreCell(i, from)
		if err != nil {
			return err
		}
		if i == 0 {
			// Deployment-level counters as of the checkpoint barrier
			// (identical across cells).
			rs.res.Aggregate.HandoversApplied = meta.HandoversApplied
			rs.res.Aggregate.FlowsTransferred = meta.FlowsTransferred
			kpiOff = meta.KPIOffset
		}
		return nil
	})
	if err != nil {
		return 0, -1, fmt.Errorf("deploy: restore cell: %w", err)
	}
	rs.res.Restores += rs.n
	return from, kpiOff, nil
}

// restoreCell rebuilds cell i from its checkpoint at the given
// instant and resumes its trace file.
func (rs *runState) restoreCell(i int, at sim.Time) (CheckpointMeta, error) {
	ck := newCheckpointer(rs.cfg.Checkpoint, i)
	cell, tf, meta, err := ck.restore(rs.cellConfig(i), at, rs.cellPath(rs.cfg.TracePath, i))
	rs.traces[i] = tf
	if err != nil {
		return CheckpointMeta{}, err
	}
	if rs.cfg.Profile {
		cell.SetPhaseProfiler(obs.NewPhaseProfiler())
	}
	rs.cells[i] = cell
	rs.cks[i] = ck
	return meta, nil
}

// loop drives all cells from the given instant to the horizon through
// the barrier sequence: advance everyone to each barrier, then — in
// this order — apply handovers, sample KPIs, write checkpoints. A
// checkpoint therefore holds state that has seen its own barrier's
// handovers and KPI sample, and its KPI offset includes that barrier's
// records, so a resumed run continues with the next barrier.
func (rs *runState) loop(from sim.Time) error {
	for _, t := range rs.barriers(from) {
		if err := runAll(rs.cells, rs.cfg.Workers, t); err != nil {
			return err
		}
		for _, h := range rs.cfg.Handovers {
			if h.At != t {
				continue
			}
			moved, err := applyHandover(rs.cells, h)
			if err != nil {
				return err
			}
			rs.res.Aggregate.HandoversApplied++
			rs.res.Aggregate.FlowsTransferred += moved
		}
		if rs.kpiAt[t] {
			rs.sampleKPI(t)
		}
		if rs.ckAt[t] {
			// The KPI stream is shared: capture its offset once, before
			// the per-cell writes fan out across workers.
			kpiOff := int64(-1)
			if rs.kpiFile != nil {
				kpiOff = rs.kpiFile.Offset()
			}
			err := ForEach(rs.n, rs.cfg.Workers, func(i int) error {
				return rs.cks[i].write(rs.res.Aggregate.HandoversApplied, rs.res.Aggregate.FlowsTransferred, kpiOff)
			})
			if err != nil {
				return fmt.Errorf("deploy: checkpoint cell %w", err)
			}
		}
	}
	if err := runAll(rs.cells, rs.cfg.Workers, rs.total); err != nil {
		return err
	}
	if rs.kpiAt[rs.total] {
		rs.sampleKPI(rs.total)
	}
	return nil
}

// sampleKPI closes every KPI-enabled cell's window at the barrier
// instant — in cell order, after all engines reached it — and appends
// the per-cell records plus, when more than one cell is aggregated, the
// deployment roll-up to the stream (a one-cell roll-up would repeat the
// cell record). Sampling happens even without an output file: closing
// the windows is part of the cells' deterministic state evolution.
func (rs *runState) sampleKPI(t sim.Time) {
	rs.kpiBuf = rs.kpiBuf[:0]
	for i, c := range rs.cells {
		if !c.KPIEnabled() {
			continue
		}
		s := c.SampleKPI(t)
		s.Rec.Cell = i
		rs.kpiBuf = append(rs.kpiBuf, s)
	}
	if rs.kpiFile == nil {
		return
	}
	for i := range rs.kpiBuf {
		rs.kpiFile.Emit(&rs.kpiBuf[i].Rec)
	}
	if rs.n > 1 {
		rollup := obs.AggregateKPI(t, rs.kpiBuf)
		rs.kpiFile.Emit(&rollup)
	}
}

// closeOutputs flushes and closes the KPI stream and every trace file
// and returns the first error: a failed final flush means a truncated
// file, which must not pass for a finished run. Idempotent, so Run and
// Resume call it checked on the success path and deferred for the rest.
func (rs *runState) closeOutputs() error {
	var first error
	if rs.kpiFile != nil {
		if err := rs.kpiFile.Close(); err != nil {
			first = fmt.Errorf("deploy: kpi: %w", err)
		}
		rs.kpiFile = nil
	}
	for i, tf := range rs.traces {
		if tf == nil {
			continue
		}
		if err := tf.Close(); err != nil && first == nil {
			first = fmt.Errorf("deploy: cell %d trace: %w", i, err)
		}
		rs.traces[i] = nil
	}
	return first
}

// barriers returns the distinct pause instants in (from, total),
// ascending: handovers, KPI samples, checkpoints.
// A KPI instant landing exactly on the horizon is handled after the
// final advance instead (loop).
func (rs *runState) barriers(from sim.Time) []sim.Time {
	set := make(map[sim.Time]bool)
	for _, h := range rs.cfg.Handovers {
		set[h.At] = true
	}
	// Order-free: set union; the result is sorted below
	for t := range rs.ckAt {
		set[t] = true
	}
	// Order-free: set union; the result is sorted below
	for t := range rs.kpiAt {
		set[t] = true
	}
	times := make([]sim.Time, 0, len(set))
	// Order-free: set membership collection; sorted below
	for t := range set {
		if t > from && t < rs.total {
			times = append(times, t)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// finish folds the per-cell results in cell order: identical for any
// worker count. One cell reports its own FCT recorder, exact or
// streaming as Cell.StreamFCT chose; the cells of a deployment all
// stream, and their histograms merge.
func (rs *runState) finish() (*Result, error) {
	rs.res.Live = rs.cells
	for i, c := range rs.cells {
		rs.res.Cells = append(rs.res.Cells, CellResult{Cell: i, Summary: c.Summary()})
	}
	agg := rs.cells[0].FCT
	if rs.n > 1 {
		agg = metrics.NewStreamingFCTRecorder()
		for i, c := range rs.cells {
			// All streams share one fixed bucket layout; Merge cannot
			// fail, but surface a defect loudly rather than dropping data.
			if err := agg.Stream().Merge(c.FCT.Stream()); err != nil {
				return nil, fmt.Errorf("deploy: merging cell %d FCT stream: %w", i, err)
			}
		}
	} else if agg.Degraded() {
		// The exact recorder outgrew its sample cap and folded into
		// streaming mid-run. The results are still correct (streaming
		// quantiles), but the caller asked for exact samples and should
		// know they are partial.
		fmt.Fprintln(os.Stderr, "deploy: the cell's exact FCT recorder hit its sample cap and degraded to streaming")
	}
	rs.res.Aggregate.Cells = rs.n
	rs.res.Aggregate.Seed = rs.seed
	rs.res.Aggregate.Counters = aggregateCounters(rs.res.Cells)
	if fair, ok := aggregateFairness(rs.cells); ok {
		rs.res.Aggregate.Counters.MeanFairnessIndex = fair
	}
	rs.res.Aggregate.FCTOverall = agg.Overall()
	rs.res.Aggregate.FCTShort = agg.ByClass(metrics.Short)
	rs.res.Aggregate.FCTMedium = agg.ByClass(metrics.Medium)
	rs.res.Aggregate.FCTLong = agg.ByClass(metrics.Long)
	return rs.res, nil
}

// aggregateFairness computes the deployment's mean Jain fairness from
// the cells' per-block raw moments: each measurement block's index is
// Jain over the union of every cell's contending users (S²/(N·Q) with
// the moments summed across cells), and the blocks are then meaned.
// Averaging per-cell indices instead — as aggregateCounters once did —
// answers a different question ("how fair is the average cell") and
// overstates fairness whenever cells differ in throughput scale; the
// paper's eq. 3 is defined over users, not cells.
func aggregateFairness(cells []*ran.Cell) (float64, bool) {
	var sums, sumSqs, ns []float64
	for _, c := range cells {
		s, q, n := c.Tracker.FairnessMoments()
		for k := range s {
			if k >= len(sums) {
				sums = append(sums, 0)
				sumSqs = append(sumSqs, 0)
				ns = append(ns, 0)
			}
			sums[k] += s[k]
			sumSqs[k] += q[k]
			ns[k] += n[k]
		}
	}
	if len(sums) == 0 {
		return 0, false
	}
	total := 0.0
	for k := range sums {
		if sumSqs[k] == 0 {
			total++ // no contending users anywhere: perfectly fair block
			continue
		}
		total += sums[k] * sums[k] / (ns[k] * sumSqs[k])
	}
	return total / float64(len(sums)), true
}

// runAll advances every cell to the given instant across the pool.
func runAll(cells []*ran.Cell, workers int, until sim.Time) error {
	err := ForEach(len(cells), workers, func(i int) error {
		cells[i].Run(until)
		return nil
	})
	if err != nil {
		return fmt.Errorf("deploy: run cell: %w", err)
	}
	return nil
}

// applyHandover performs one scripted migration and returns how many
// flows were transferred.
func applyHandover(cells []*ran.Cell, h Handover) (int, error) {
	src, dst := cells[h.From], cells[h.To]
	blob, err := src.HandoverExport(h.UE)
	if err != nil {
		return 0, fmt.Errorf("deploy: handover at %v: %w", h.At, err)
	}
	if err := dst.HandoverImport(h.UE, blob); err != nil {
		return 0, fmt.Errorf("deploy: handover at %v: %w", h.At, err)
	}
	moved := len(blob) / pdcp.FlowRecordLen
	if h.ContinueBytes > 0 {
		tuples, err := src.UEFlows(h.UE)
		if err != nil {
			return moved, fmt.Errorf("deploy: handover at %v: %w", h.At, err)
		}
		for _, tuple := range tuples {
			conn, err := dst.AdoptConn(h.UE, tuple)
			if err != nil {
				return moved, fmt.Errorf("deploy: handover at %v: %w", h.At, err)
			}
			if err := dst.StartFlow(h.UE, h.ContinueBytes, ran.FlowOptions{Conn: conn}); err != nil {
				return moved, fmt.Errorf("deploy: handover at %v: %w", h.At, err)
			}
		}
	}
	return moved, nil
}

// aggregateCounters sums the countable fields and averages the mean
// metrics over cells, in cell order.
func aggregateCounters(cells []CellResult) metrics.RunCounters {
	var out metrics.RunCounters
	if len(cells) == 0 {
		return out
	}
	var srtt sim.Time
	var se, fair float64
	for _, c := range cells {
		st := c.Summary.Counters
		out.Add(st)
		srtt += st.MeanSRTT
		se += st.MeanSpectralEff
		fair += st.MeanFairnessIndex
	}
	out.MeanSRTT = srtt / sim.Time(len(cells))
	out.MeanSpectralEff = se / float64(len(cells))
	out.MeanFairnessIndex = fair / float64(len(cells))
	return out
}
