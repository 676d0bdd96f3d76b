package ran

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/workload"
)

// The differential oracle for arrival cursors: ScheduleSource as it
// stood when it queued a source's whole schedule at once, every arrival
// under a fresh seq, and Harness.Build around it. Do not modernise it;
// TestArrivalCursorMatchesEagerOracle demands that a cell fed through
// cursors fires the very sequence of (at, seq, kind, payload) a cell fed
// through this loop fires.

func eagerScheduleSource(c *Cell, src workload.Source, recordFrom, recordUntil sim.Time) {
	for {
		f, ok := src.Next()
		if !ok {
			return
		}
		skip := f.Start < recordFrom || f.Start >= recordUntil
		c.Eng.Schedule(f.Start, c, sim.Event{Kind: evArrival, Idx: arrivalFlags(f.Incast, skip), A: f.Size, B: int64(f.UE)})
	}
}

func eagerHarnessBuild(h Harness) (*Cell, error) {
	cell, err := NewCell(h.Config)
	if err != nil {
		return nil, err
	}
	span := h.Warmup + h.Window + h.Tail
	spec := cell.Config().Workload
	if spec.Enabled() {
		seed := h.WorkloadSeed
		if seed == 0 {
			seed = cell.Config().Seed + 7919
		}
		src, err := spec.Build(workload.Env{
			NumUEs:      cell.Config().NumUEs,
			CapacityBps: cell.EffectiveCapacityBps(),
			Span:        span,
		}, rng.New(seed))
		if err != nil {
			return nil, err
		}
		eagerScheduleSource(cell, src, h.Warmup, h.Warmup+h.Window)
	}
	if h.Warmup > 0 {
		cell.ScheduleTrackerReset(h.Warmup)
	}
	if h.Window > 0 {
		cell.ScheduleTrackerFreeze(h.Warmup + h.Window)
	}
	return cell, nil
}

// firedEvent is what the oracle compares of one fired entry: its key,
// the kind of its handler and its payload less the pointer.
type firedEvent struct {
	at        sim.Time
	seq       uint64
	handler   string
	kind      uint8
	idx       int32
	a, b      int64
	processed uint64
}

func (f firedEvent) String() string {
	return fmt.Sprintf("(%v, seq %d) %s kind %d idx %d a %d b %d", f.at, f.seq, f.handler, f.kind, f.idx, f.a, f.b)
}

// stepAll fires c's queue one entry at a time up to until and returns
// what fired.
func stepAll(c *Cell, until sim.Time) []firedEvent {
	var out []firedEvent
	for {
		en, ok := c.Eng.Step()
		if !ok {
			return out
		}
		out = append(out, firedEvent{en.At, en.Seq, fmt.Sprintf("%T", en.H), en.Ev.Kind, en.Ev.Idx, en.Ev.A, en.Ev.B, c.Eng.Processed()})
		if en.At >= until {
			return out
		}
	}
}

// unsizedSource hides a schedule's length from workload.Len, so
// ScheduleSource collects it first.
type unsizedSource struct{ workload.Source }

// oracleCase is one randomised scenario: a harness whose Spec mixes
// classes, Extra flows on TTI and tracker instants and a flow cap, or
// replays a trace file, plus extra sources scheduled by hand.
func oracleCase(t *testing.T, r *rng.Source, dir string, i int) (Harness, [][]workload.FlowSpec) {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 3 + r.Intn(4)
	cfg.Grid.NumRB = 15
	cfg.Seed = uint64(i + 1)
	if r.Intn(2) == 0 {
		cfg.Scheduler = SchedOutRAN
	}
	h := Harness{Warmup: 40 * sim.Millisecond, Window: 120 * sim.Millisecond, Tail: 40 * sim.Millisecond, Drain: 60 * sim.Millisecond}
	span := h.Warmup + h.Window + h.Tail
	// instant returns a start on a TTI boundary or a tracker instant, so
	// arrivals tie with the cell's own same-instant events.
	instant := func() sim.Time {
		switch r.Intn(4) {
		case 0:
			return h.Warmup
		case 1:
			return h.Warmup + h.Window
		}
		return sim.Time(r.Intn(int(span/sim.Millisecond))) * sim.Millisecond
	}
	flow := func(start sim.Time) workload.FlowSpec {
		return workload.FlowSpec{Start: start, UE: r.Intn(2 * cfg.NumUEs), Size: int64(1 + r.Intn(40000)), Incast: r.Intn(3) == 0}
	}
	kinds := []workload.ClassKind{workload.ClassWeb, workload.ClassVoice, workload.ClassIoT, workload.ClassIncast, workload.ClassVideo}
	var spec workload.Spec
	if i%4 == 3 {
		// A trace file with runs of simultaneous flows.
		var flows []workload.FlowSpec
		for t := sim.Time(0); t < span; t += sim.Time(r.Intn(3)) * sim.Millisecond {
			flows = append(flows, flow(t))
		}
		path := filepath.Join(dir, fmt.Sprintf("trace%d.jsonl", i))
		var b bytes.Buffer
		if err := workload.WriteTrace(&b, flows); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		spec = workload.ReplaySpec(path)
	} else {
		spec.Load = 0.2 + r.Float64()*0.6
		for range 1 + r.Intn(3) {
			spec.Classes = append(spec.Classes, workload.ClassSpec{Kind: kinds[r.Intn(len(kinds))], Share: r.Float64()})
		}
		if r.Intn(2) == 0 {
			spec.Envelope = workload.Envelope{Kind: workload.EnvDiurnal}
		}
	}
	for range r.Intn(20) {
		spec.Extra = append(spec.Extra, flow(instant()))
	}
	if r.Intn(3) == 0 {
		spec.MaxFlows = 1 + r.Intn(60)
	}
	h.Config = cfg.WithWorkload(spec)
	// Sources the caller schedules by hand, sorted, heavy with ties.
	var extra [][]workload.FlowSpec
	for range r.Intn(3) {
		var flows []workload.FlowSpec
		for range r.Intn(30) {
			flows = append(flows, flow(instant()))
		}
		slicesSortByStart(flows)
		extra = append(extra, flows)
	}
	return h, extra
}

// slicesSortByStart is a stable insertion sort by start.
func slicesSortByStart(flows []workload.FlowSpec) {
	for i := 1; i < len(flows); i++ {
		for j := i; j > 0 && flows[j].Start < flows[j-1].Start; j-- {
			flows[j], flows[j-1] = flows[j-1], flows[j]
		}
	}
}

// TestArrivalCursorMatchesEagerOracle: on randomised scenarios — several
// sources on one cell, MaxFlows, Spec.Extra, a trace file, arrivals tied
// with same-instant tracker and TTI events — the cell fed through
// arrival cursors fires exactly what the eager oracle's cell fires, in
// the same order, with the same processed count after every event.
func TestArrivalCursorMatchesEagerOracle(t *testing.T) {
	r := rng.New(20261016)
	dir := t.TempDir()
	for i := range 24 {
		h, extra := oracleCase(t, r, dir, i)
		live, err := h.Build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := eagerHarnessBuild(h)
		if err != nil {
			t.Fatal(err)
		}
		for j, flows := range extra {
			var src workload.Source = workload.SliceSource(flows)
			if j%2 == 1 {
				src = unsizedSource{src}
			}
			live.ScheduleSource(src, h.Warmup, h.Warmup+h.Window)
			eagerScheduleSource(ref, workload.SliceSource(flows), h.Warmup, h.Warmup+h.Window)
		}
		got, want := stepAll(live, h.Total()), stepAll(ref, h.Total())
		arrivals := 0
		for k := range min(len(got), len(want)) {
			if got[k] != want[k] {
				t.Fatalf("case %d: event %d fired %v, oracle fired %v", i, k, got[k], want[k])
			}
			if got[k].kind == evArrival && got[k].handler == "*ran.Cell" {
				arrivals++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: %d events fired, oracle fired %d", i, len(got), len(want))
		}
		if arrivals == 0 {
			t.Fatalf("case %d: no arrival fired; the case tests nothing", i)
		}
		for _, cur := range live.cursors {
			if cur.fired == cur.n && cur.src != nil {
				t.Fatalf("case %d: source %d finished and still held", i, cur.idx)
			}
		}
	}
}

// TestWorkloadTraceCompleteAtBuild: with Harness.WorkloadTrace set, the
// trace holds the whole schedule when Build returns, before the cell
// runs, as the deployment (which closes the file right after Build) and
// the benchmark's workload digest rely on.
func TestWorkloadTraceCompleteAtBuild(t *testing.T) {
	h := cityOpsShape()
	h.Config.Workload.MaxFlows = 900
	var got bytes.Buffer
	h.WorkloadTrace = &got
	c, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Eng.Now() != 0 || c.Eng.Processed() != 0 {
		t.Fatal("Build ran the cell")
	}
	src, err := h.Config.Workload.Build(workload.Env{
		NumUEs:      c.cfg.NumUEs,
		CapacityBps: c.EffectiveCapacityBps(),
		Span:        h.Warmup + h.Window + h.Tail,
	}, rng.New(h.Config.Seed+7919))
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.Collect(src)
	var want bytes.Buffer
	if err := workload.WriteTrace(&want, flows); err != nil {
		t.Fatal(err)
	}
	if len(flows) != 900 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("trace at Build is %d bytes, WriteTrace of the %d-flow schedule %d", got.Len(), len(flows), want.Len())
	}
}

// TestOutOfOrderSourcePanics: a source whose start goes backwards fails
// loudly when the run pulls the offending flow, naming the source, the
// flow and both instants.
func TestOutOfOrderSourcePanics(t *testing.T) {
	c, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleSource(workload.SliceSource([]workload.FlowSpec{{Start: sim.Millisecond, Size: 100}}), 0, 0)
	c.ScheduleSource(workload.SliceSource([]workload.FlowSpec{
		{Start: 2 * sim.Millisecond, Size: 100},
		{Start: 5 * sim.Millisecond, Size: 100},
		{Start: 3 * sim.Millisecond, Size: 100},
	}), 0, 0)
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"source 1", "flow 2 at 3ms", "flow 1 at 5ms"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}
	}()
	c.Run(10 * sim.Millisecond)
	t.Fatal("an out-of-order source did not panic")
}

// TestCallerSourceRefusesCheckpoint: a cell fed by a caller's own source
// cannot be checkpointed while that source has flows to go — a restore
// could not rebuild them — and can once it is spent.
func TestCallerSourceRefusesCheckpoint(t *testing.T) {
	c, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	c.ScheduleSource(workload.SliceSource([]workload.FlowSpec{
		{Start: sim.Millisecond, Size: 100},
		{Start: 20 * sim.Millisecond, Size: 100},
	}), 0, 0)
	c.Run(10 * sim.Millisecond)
	if _, err := c.Snapshot(); err == nil || !strings.Contains(err.Error(), "ScheduleSource") {
		t.Fatalf("snapshot with a caller's source mid-schedule: err %v, want a refusal", err)
	}
	c.Run(30 * sim.Millisecond)
	if _, err := c.Snapshot(); err != nil {
		t.Fatalf("snapshot after the caller's source is spent: %v", err)
	}
}

// TestTraceFileRestore: a cell replaying a trace file restores by
// reading the file again — mid-arrivals into the run the uninterrupted
// cell makes, past the last arrival without reading it at all — and a
// file changed since the checkpoint fails the restore with ErrCorrupt.
func TestTraceFileRestore(t *testing.T) {
	h := resumeScenario(SchedPF, UM)
	path := filepath.Join(t.TempDir(), "w.jsonl")
	trace, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h.WorkloadTrace = trace
	if _, err := h.Build(); err != nil {
		t.Fatal(err)
	}
	trace.Close()
	h.WorkloadTrace = nil
	h.Config = h.Config.WithWorkload(workload.ReplaySpec(path))

	restore := func(img []byte) (*Cell, error) {
		a, err := snapshot.Open(img)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCell(h.Config)
		if err != nil {
			t.Fatal(err)
		}
		return c, c.RestoreSnapshot(a)
	}
	snapAt := func(c *Cell, at sim.Time) []byte {
		c.Run(at)
		img, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	ref, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	mid := snapAt(ref, 500*sim.Millisecond)
	resumed, err := restore(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapAt(resumed, 2*sim.Second), snapAt(ref, 2*sim.Second)) {
		t.Fatal("the cell restored mid-arrivals writes another archive at 2 s than the uninterrupted cell")
	}
	late := snapAt(ref, 3*sim.Second) // past the last arrival

	// The same number of flows, the same flows up to the one queued at
	// the checkpoint: only the file's digest tells the change.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := workload.ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	flows[len(flows)-1].Size++
	var b bytes.Buffer
	if err := workload.WriteTrace(&b, flows); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := restore(mid); !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "has changed") {
		t.Fatalf("restore after the trace file changed: err %v, want ErrCorrupt", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := restore(late); err != nil {
		t.Fatalf("restore past the last arrival read the trace file: %v", err)
	}
}
