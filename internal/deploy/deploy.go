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
// killed run resumes with Resume; a scripted fault.WorkerCrash kills
// one cell mid-run and the runtime restores it from its latest
// checkpoint and replays — in both cases the per-cell summaries and
// traces are byte-identical to an uninterrupted run, because cell
// restoration is byte-exact (see ran.Cell.RestoreSnapshot).
package deploy

import (
	"fmt"
	"os"
	"sort"

	"outran/internal/fault"
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

// Config describes one deployment run.
type Config struct {
	// Cells is the number of cells (default 1).
	Cells int
	// Workers bounds how many cells execute concurrently; <= 0 means
	// GOMAXPROCS. The worker count never changes results.
	Workers int
	// Cell is the per-cell base configuration; each cell gets a copy
	// with its own derived seed. Its Workload spec declares the traffic
	// every cell offers (use PerCell for heterogeneous workloads).
	Cell ran.Config
	// Warmup/Window/Tail/Drain is the shared measurement methodology
	// (ran.Harness fields of the same names).
	Warmup, Window, Tail, Drain sim.Time
	// Seed is the deployment master seed; per-cell seeds derive from
	// it in cell order. 0 falls back to Cell.Seed, then to 1.
	Seed uint64
	// Handovers scripts inter-cell UE migrations, applied in script
	// order at each shared instant.
	Handovers []Handover
	// TracePathFor, when non-nil, gives each cell a runtime-owned
	// JSONL trace file ("" = no trace for that cell), installed before
	// the cell's first event. The runtime owns the file so that on crash
	// or resume it can truncate it back to the checkpoint's offset and
	// let the replay append the exact suffix an uninterrupted run would
	// have written.
	TracePathFor func(cell int) string
	// Profile installs a wall-clock phase profiler on every cell, on
	// build and on every restore. Host timing: it fills
	// RunSummary.Phases and touches no trace, KPI record or checkpoint.
	Profile bool
	// PerCell, when non-nil, may adjust each cell's derived config
	// (heterogeneous deployments). It must be deterministic in the
	// cell index.
	PerCell func(cell int, cfg ran.Config) ran.Config
	// WorkloadTracePathFor, when non-nil, gives each cell a workload
	// trace file ("" = none): the exact flow schedule the cell offered,
	// written during build as a versioned JSONL trace
	// (workload.TraceWriter). Replaying a cell's trace via
	// Workload.TraceFile reproduces its run byte-identically. It must
	// be deterministic in the cell index.
	WorkloadTracePathFor func(cell int) string
	// KPIPath, when non-empty, writes the live KPI stream to this JSONL
	// file: one record per cell per sampling instant (in cell order)
	// followed, when Cells > 1, by one deployment roll-up record
	// (Cell == -1). Requires
	// Cell.KPIEvery > 0; the base Cell config fixes the cadence (a
	// PerCell hook must not change KPIEvery). The stream derives only
	// from simulation state, so same-seed runs produce byte-identical
	// files for any worker count, and kill-and-resume or scripted
	// crashes re-emit the exact suffix.
	KPIPath string
	// ExactFCT opts into the exact per-flow FCT recorder for every
	// cell. Deployment runs default to the streaming recorder
	// (ran.Config.StreamFCT is forced on): ~20 KB per cell regardless
	// of flow count, which is what makes city-scale cell counts fit in
	// memory. The exact path retains every FCTSample and is capped at
	// metrics.DefaultExactCap samples per cell — past the cap the
	// recorder folds into a streaming accumulator and the run carries
	// on (finish() notes the degradation on stderr).
	ExactFCT bool
	// Checkpoint enables periodic checkpointing (see CheckpointConfig).
	Checkpoint CheckpointConfig
	// Crashes scripts worker crashes: each event must have Kind
	// fault.WorkerCrash, UE holding the CELL index, and Start the
	// crash instant. The cell's in-memory state at Start is discarded,
	// restored from its latest checkpoint, and replayed — results stay
	// byte-identical to a crash-free run. Requires Checkpoint.
	Crashes []fault.Event
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

	// Restores counts checkpoint restorations performed during the
	// run (crash recovery and Resume). Deliberately NOT part of the
	// aggregate Summary or any cell's RunSummary: a recovered run's
	// summaries must be byte-identical to an uninterrupted run's.
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
	kpiTimes []sim.Time
	kpiAt    map[sim.Time]bool
	kpiFile  *kpiFile
	kpiBuf   []obs.KPISample // per-barrier scratch, cell order

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
		rs.kpiFile, err = openKPIFile(rs.cfg.KPIPath, rs.cfg.Cell.KPIEvery)
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
		rs.kpiFile, err = resumeKPIFile(rs.cfg.KPIPath, rs.cfg.Cell.KPIEvery, kpiOff)
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
	if seed == 0 {
		seed = 1
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
	for i, ev := range cfg.Crashes {
		switch {
		case !ckOn:
			return nil, fmt.Errorf("deploy: crash %d: Crashes require Checkpoint.Dir", i)
		case ev.Kind != fault.WorkerCrash:
			return nil, fmt.Errorf("deploy: crash %d: kind %v, want %v", i, ev.Kind, fault.WorkerCrash)
		case ev.UE < 0 || ev.UE >= n:
			return nil, fmt.Errorf("deploy: crash %d: cell %d outside [0,%d)", i, ev.UE, n)
		case ev.Start <= cfg.Checkpoint.Every || ev.Start >= total:
			return nil, fmt.Errorf("deploy: crash %d: time %v outside (%v,%v) — a crash needs a checkpoint before it",
				i, ev.Start, cfg.Checkpoint.Every, total)
		}
		// The replay window (last checkpoint, crash] must not contain a
		// handover touching the crashed cell: replaying the segment
		// cannot re-apply a deployment-level transfer.
		lastCk := (ev.Start - 1) / cfg.Checkpoint.Every * cfg.Checkpoint.Every
		for j, h := range cfg.Handovers {
			if (h.From == ev.UE || h.To == ev.UE) && h.At > lastCk && h.At <= ev.Start {
				return nil, fmt.Errorf("deploy: crash %d at %v: handover %d at %v touches cell %d inside the replay window (after checkpoint %v)",
					i, ev.Start, j, h.At, ev.UE, lastCk)
			}
		}
	}

	// Derive per-cell seeds from one master stream, in cell order,
	// before any parallel work: the worker count cannot perturb them.
	master := rng.New(seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = master.Uint64()
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
			rs.kpiTimes = append(rs.kpiTimes, t)
			rs.kpiAt[t] = true
		}
		rs.kpiBuf = make([]obs.KPISample, 0, n)
	}
	return rs, nil
}

// cellConfig derives cell i's effective configuration. Streaming FCT
// is the deployment default — Config.ExactFCT is the explicit opt-in
// for per-flow retention — and the same derivation runs on build and
// restore, so checkpoint fingerprints agree.
func (rs *runState) cellConfig(i int) ran.Config {
	ccfg := rs.cfg.Cell.WithSeed(rs.seeds[i])
	if !rs.cfg.ExactFCT {
		ccfg.StreamFCT = true
	}
	if rs.cfg.PerCell != nil {
		ccfg = rs.cfg.PerCell(i, ccfg)
	}
	return ccfg
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
		if rs.cfg.TracePathFor != nil {
			if path := rs.cfg.TracePathFor(i); path != "" {
				tf, err := openTraceFile(path)
				if err != nil {
					return err
				}
				rs.traces[i] = tf
				h.Tracer = tf.Tracer()
			}
		}
		// The workload trace is fully written during Build (the harness
		// walks the whole schedule into it before the cell pulls its
		// first flow), so the file closes here — no lifetime to manage
		// across the run.
		var wt *os.File
		if rs.cfg.WorkloadTracePathFor != nil {
			if path := rs.cfg.WorkloadTracePathFor(i); path != "" {
				f, err := os.Create(path)
				if err != nil {
					return fmt.Errorf("workload trace: %w", err)
				}
				wt = f
				h.WorkloadTrace = f
			}
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
			if err := ck.attach(cell, off); err != nil {
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
	var tracePath string
	if rs.cfg.TracePathFor != nil {
		tracePath = rs.cfg.TracePathFor(i)
	}
	if tf := rs.traces[i]; tf != nil {
		// A crashed cell's trace is about to be truncated back to the
		// checkpoint offset, but a failed flush still means the disk
		// cannot take the replayed suffix either.
		rs.traces[i] = nil
		if err := tf.Close(); err != nil {
			return CheckpointMeta{}, fmt.Errorf("trace: %w", err)
		}
	}
	ck := newCheckpointer(rs.cfg.Checkpoint, i)
	cell, tf, meta, err := ck.restore(rs.cellConfig(i), at, tracePath)
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
// this order — recover scripted crashes, apply handovers, sample KPIs,
// write checkpoints. The order is what keeps recovery byte-exact: a
// crash at t discards state that has NOT yet seen t's handovers, KPI
// sample, or checkpoint, exactly like the crash-free schedule — and a
// checkpoint's KPI offset therefore includes its own barrier's records.
func (rs *runState) loop(from sim.Time) error {
	for _, t := range rs.barriers(from) {
		if err := runAll(rs.cells, rs.cfg.Workers, t); err != nil {
			return err
		}
		for _, ev := range rs.cfg.Crashes {
			if ev.Start == t && ev.Start > from {
				if err := rs.handleCrash(ev.UE, t); err != nil {
					return err
				}
			}
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
// ascending: handovers, scripted crashes, KPI samples, checkpoints.
// A KPI instant landing exactly on the horizon is handled after the
// final advance instead (loop).
func (rs *runState) barriers(from sim.Time) []sim.Time {
	set := make(map[sim.Time]bool)
	for _, h := range rs.cfg.Handovers {
		set[h.At] = true
	}
	for _, ev := range rs.cfg.Crashes {
		set[ev.Start] = true
	}
	//outran:orderfree set union; the result is sorted below
	for t := range rs.ckAt {
		set[t] = true
	}
	//outran:orderfree set union; the result is sorted below
	for t := range rs.kpiAt {
		set[t] = true
	}
	times := make([]sim.Time, 0, len(set))
	//outran:orderfree set membership collection; sorted below
	for t := range set {
		if t > from && t < rs.total {
			times = append(times, t)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// handleCrash simulates cell i's worker dying at t: its in-memory
// state is discarded, the cell restores from its latest checkpoint,
// the trace file rolls back to the checkpoint's offset, and the lost
// segment replays. Byte-exact restoration makes the recovered cell
// indistinguishable from one that never crashed.
func (rs *runState) handleCrash(i int, t sim.Time) error {
	_, at, err := LatestCheckpoint(rs.cfg.Checkpoint.Dir, i)
	if err != nil {
		return fmt.Errorf("deploy: recovering cell %d crash at %v: %w", i, t, err)
	}
	if _, err := rs.restoreCell(i, at); err != nil {
		return fmt.Errorf("deploy: recovering cell %d crash at %v: %w", i, t, err)
	}
	rs.res.Restores++
	// Replay the lost segment. KPI sampling instants strictly inside
	// (checkpoint, crash) must be re-stepped — SampleKPI is part of the
	// cell's deterministic state evolution — with the records discarded:
	// the stream already holds them from before the crash, and byte-
	// exact restoration regenerates identical values. The checkpoint
	// instant itself is excluded (its sample preceded the write) and so
	// is the crash instant (the main loop samples it after this call).
	cell := rs.cells[i]
	if cell.KPIEnabled() {
		for _, s := range rs.kpiTimes {
			if s <= at {
				continue
			}
			if s >= t {
				break
			}
			cell.Run(s)
			cell.SampleKPI(s)
		}
	}
	cell.Run(t)
	return nil
}

// finish folds the per-cell results in cell order: identical for any
// worker count. Cells on the streaming FCT path contribute their
// histograms via Merge (no per-flow samples exist to re-record);
// exact-path cells contribute samples. A mixed deployment merges both
// into one streaming aggregate.
func (rs *runState) finish() (*Result, error) {
	rs.res.Live = rs.cells
	agg := &metrics.FCTRecorder{}
	for _, c := range rs.cells {
		if c.FCT.Stream() != nil {
			agg = metrics.NewStreamingFCTRecorder()
			break
		}
	}
	for i, c := range rs.cells {
		rs.res.Cells = append(rs.res.Cells, CellResult{Cell: i, Summary: c.Summary()})
		if c.FCT.Degraded() {
			// Only possible on ExactFCT runs: the cell outgrew the
			// sample cap and folded into streaming mid-run. The results
			// are still correct (streaming quantiles), but the caller
			// asked for exact samples and should know they are partial.
			fmt.Fprintf(os.Stderr, "deploy: cell %d exact FCT recorder hit its sample cap and degraded to streaming\n", i)
		}
		if s := c.FCT.Stream(); s != nil {
			// All streams share one fixed bucket layout; Merge cannot
			// fail, but surface a defect loudly rather than dropping data.
			if err := agg.Stream().Merge(s); err != nil {
				return nil, fmt.Errorf("deploy: merging cell %d FCT stream: %w", i, err)
			}
			continue
		}
		for _, s := range c.FCT.Samples() {
			agg.Record(s)
		}
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
		out.BufferDrops += st.BufferDrops
		out.BufferEvictions += st.BufferEvictions
		out.DecipherFailures += st.DecipherFailures
		out.ReassemblyDrops += st.ReassemblyDrops
		out.HARQFailures += st.HARQFailures
		out.AMAbandoned += st.AMAbandoned
		out.AMRetxBytes += st.AMRetxBytes
		out.FlowsStarted += st.FlowsStarted
		out.FlowsCompleted += st.FlowsCompleted
		out.TTIs += st.TTIs
		out.AMDeliveryFailures += st.AMDeliveryFailures
		out.HARQFeedbackErrors += st.HARQFeedbackErrors
		out.BackhaulDrops += st.BackhaulDrops
		out.Reestablishments += st.Reestablishments
		srtt += st.MeanSRTT
		se += st.MeanSpectralEff
		fair += st.MeanFairnessIndex
	}
	out.MeanSRTT = srtt / sim.Time(len(cells))
	out.MeanSpectralEff = se / float64(len(cells))
	out.MeanFairnessIndex = fair / float64(len(cells))
	return out
}
