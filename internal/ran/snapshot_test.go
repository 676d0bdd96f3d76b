package ran

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"outran/internal/ip"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/rlc"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
	"outran/internal/workload"
)

// resumeScenario is a small but complete measured run: warm-up,
// recorded window, pressure tail, drain — every phase a checkpoint can
// land in.
func resumeScenario(sched SchedulerKind, rlcMode RLCMode) Harness {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 6
	cfg.Grid.NumRB = 25
	cfg.Scheduler = sched
	cfg.RLC = rlcMode
	cfg.Seed = 42
	if sched == SchedOutRAN {
		// Exercise the MLFQ reset ticker across the snapshot boundary.
		cfg.OutRAN.ResetPeriod = 150 * sim.Millisecond
	}
	return Harness{
		Config: cfg.WithWorkload(workload.PoissonSpec("lte", 0.7)),
		Warmup: 200 * sim.Millisecond,
		Window: 600 * sim.Millisecond,
		Tail:   200 * sim.Millisecond,
		Drain:  4 * sim.Second,
	}
}

type runResult struct {
	summary metrics.RunSummary
	fct     []metrics.FCTSample
	hash    uint64
	events  []obs.Event
}

// runUninterrupted drives the scenario start to finish in one process
// with a decision-hashing scheduler and an in-memory trace.
func runUninterrupted(t *testing.T, h Harness) runResult {
	t.Helper()
	sink := obs.NewRingSink(0)
	h.Tracer = obs.NewTracer(sink)
	cell, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	hs := &hashingScheduler{inner: cell.sched}
	cell.sched = hs
	cell.Run(h.Total())
	return runResult{summary: cell.Summary(), fct: cell.FCT.Samples(), hash: hs.h, events: sink.Events()}
}

// runWithResume drives the same scenario to mid, snapshots, restores
// into a fresh cell (fresh scheduler wrapper seeded with the hash so
// the decision chain keeps folding), and finishes there.
func runWithResume(t *testing.T, h Harness, mid sim.Time) runResult {
	t.Helper()
	sinkA := obs.NewRingSink(0)
	h.Tracer = obs.NewTracer(sinkA)
	cellA, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	hsA := &hashingScheduler{inner: cellA.sched}
	cellA.sched = hsA
	cellA.Run(mid)

	img, err := cellA.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at %v: %v", mid, err)
	}
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}

	cellB, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	sinkB := obs.NewRingSink(0)
	cellB.SetTracerResumed(obs.NewTracer(sinkB))
	if err := cellB.RestoreSnapshot(a); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// A snapshot of the freshly restored cell must be byte-identical to
	// the one it was restored from — the round trip loses nothing.
	img2, err := cellB.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot after restore: %v", err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatalf("snapshot -> restore -> snapshot is not byte-identical (%d vs %d bytes)", len(img), len(img2))
	}
	hsB := &hashingScheduler{inner: cellB.sched, h: hsA.h}
	cellB.sched = hsB
	cellB.Run(h.Total())

	events := append(sinkA.Events(), sinkB.Events()...)
	return runResult{summary: cellB.Summary(), fct: cellB.FCT.Samples(), hash: hsB.h, events: events}
}

func compareRuns(t *testing.T, ref, res runResult) {
	t.Helper()
	if len(ref.fct) == 0 {
		t.Fatal("no flows completed; the scenario is not exercising the stack")
	}
	if len(ref.fct) != len(res.fct) {
		t.Fatalf("uninterrupted run completed %d flows, resumed run %d", len(ref.fct), len(res.fct))
	}
	for i := range ref.fct {
		if ref.fct[i] != res.fct[i] {
			t.Fatalf("FCT trace diverges at flow %d: %+v vs %+v", i, ref.fct[i], res.fct[i])
		}
	}
	if ref.hash != res.hash {
		t.Fatalf("scheduler decision hashes differ: %#x vs %#x", ref.hash, res.hash)
	}
	if len(ref.events) != len(res.events) {
		t.Fatalf("trace lengths differ: %d vs %d events", len(ref.events), len(res.events))
	}
	for i := range ref.events {
		if ref.events[i] != res.events[i] {
			t.Fatalf("trace diverges at event %d:\n  uninterrupted: %+v\n  resumed:       %+v", i, ref.events[i], res.events[i])
		}
	}
	if !reflect.DeepEqual(ref.summary, res.summary) {
		t.Fatalf("summaries differ:\n uninterrupted: %+v\n resumed:       %+v", ref.summary, res.summary)
	}
}

// TestResumeEquivalence is the tentpole acceptance gate: a run
// checkpointed mid-flight and resumed in a fresh cell must continue
// byte-identically — same per-TTI scheduler decisions, same trace
// suffix, same per-flow FCTs, same end-of-run summary — for both the
// PF baseline and the full OutRAN stack (AM mode, MLFQ reset ticker).
func TestResumeEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		sched SchedulerKind
		rlc   RLCMode
		mid   sim.Time
	}{
		// Mid-window, deliberately not TTI-aligned.
		{"PF-UM", SchedPF, UM, 433*sim.Millisecond + 137*sim.Microsecond},
		{"OutRAN-AM", SchedOutRAN, AM, 433*sim.Millisecond + 137*sim.Microsecond},
		// Checkpoint inside the warm-up transient.
		{"PF-UM-warmup", SchedPF, UM, 97 * sim.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := resumeScenario(tc.sched, tc.rlc)
			ref := runUninterrupted(t, h)
			res := runWithResume(t, h, tc.mid)
			compareRuns(t, ref, res)
		})
	}
}

// TestRestoreRejectsConfigMismatch: a snapshot restores only into a
// cell built from the identical effective configuration.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	h := resumeScenario(SchedPF, UM)
	cell, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	cell.Run(50 * sim.Millisecond)
	img, err := cell.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	other := h.Config
	other.Seed = 43
	cellB, err := NewCell(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := cellB.RestoreSnapshot(a); err == nil {
		t.Fatal("restore into a different configuration succeeded; want error")
	}
}

// TestRestoreRejectsDoubleRestore: an instance accepts one restore per
// lifetime; a second would silently merge two runs' state.
func TestRestoreRejectsDoubleRestore(t *testing.T) {
	h := resumeScenario(SchedPF, UM)
	cell, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	cell.Run(50 * sim.Millisecond)
	img, err := cell.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	cellB, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := cellB.RestoreSnapshot(a); err != nil {
		t.Fatal(err)
	}
	if err := cellB.RestoreSnapshot(a); err == nil {
		t.Fatal("second restore into the same instance succeeded; want error")
	}
	// A cell that has already run is no restore target either.
	cellC, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	cellC.Run(10 * sim.Millisecond)
	if err := cellC.RestoreSnapshot(a); err == nil {
		t.Fatal("restore into a cell that already ran succeeded; want error")
	}
}

// TestSnapshotRefusesUnserialisableFlows: persistent connections and
// completion callbacks cannot cross a checkpoint.
func TestSnapshotRefusesUnserialisableFlows(t *testing.T) {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 2
	cfg.Grid.NumRB = 15
	cfg.Seed = 5
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.StartFlow(0, 20000, FlowOptions{OnComplete: func(sim.Time) {}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cell.Snapshot(); err == nil {
		t.Fatal("snapshot with a callback-bearing flow succeeded; want error")
	}
}

// TestSnapshotRefusesPendingFuncs: a plain NewCell cell snapshots
// mid-run with nothing "enabled"; a raw Engine.At func still pending is
// an event the checkpoint would drop, so the snapshot fails and counts
// it, and succeeds again once the func has fired.
func TestSnapshotRefusesPendingFuncs(t *testing.T) {
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 2
	cfg.Grid.NumRB = 15
	cfg.Seed = 5
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.StartFlow(0, 200000, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	cell.Run(20 * sim.Millisecond)
	if _, err := cell.Snapshot(); err != nil {
		t.Fatalf("mid-run snapshot of a plain NewCell cell: %v", err)
	}
	fired := false
	cell.Eng.At(30*sim.Millisecond, func() { fired = true })
	_, err = cell.Snapshot()
	if err == nil {
		t.Fatal("snapshot with a raw Engine.At func pending succeeded; the func would be dropped on restore")
	}
	if !strings.Contains(err.Error(), "1 pending Engine.At/After func") {
		t.Fatalf("error does not count the pending funcs: %v", err)
	}
	cell.Run(30 * sim.Millisecond)
	if !fired {
		t.Fatal("the pending func never fired")
	}
	if _, err := cell.Snapshot(); err != nil {
		t.Fatalf("snapshot after the func fired: %v", err)
	}
}

// TestRestoreRejectsCorruptSections: flipping a byte inside a section
// payload fails the file checksum; truncating a section fails the
// parse; both surface as errors, never panics.
func TestRestoreRejectsCorruptSections(t *testing.T) {
	h := resumeScenario(SchedPF, UM)
	cell, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	cell.Run(250 * sim.Millisecond)
	img, err := cell.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x40
	if _, err := snapshot.Open(bad); err == nil {
		t.Fatal("corrupted snapshot opened cleanly; want checksum error")
	}
	if _, err := snapshot.Open(img[:len(img)-9]); err == nil {
		t.Fatal("truncated snapshot opened cleanly; want error")
	}

	// One hostile pending-event record per kind, and arrival cursors,
	// spliced into an otherwise valid snapshot of an idle cell (no events
	// of its own, so every UE section ends in a zero event count and the
	// pending section in a zero event count and a zero cursor count).
	// Each must fail the restore with ErrCorrupt — at restore time, not
	// when the event would have fired.
	idle, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	idle.Run(100 * sim.Millisecond)
	// An arrival is its source's cursor: the cell's workload generated at
	// seed 1 over one second, on a seq band the idle cell reserves before
	// its snapshot, queued at its first flow after the snapshot instant;
	// fix edits the record first.
	const span = sim.Second
	sch, err := idle.generate(1, span, 0)
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.Collect(sch.Source())
	base := idle.Eng.Reserve(len(flows))
	img, err = idle.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	now := int64(idle.Eng.Now())
	tuple := func(e *snapshot.Encoder) { (&ip.FiveTuple{}).Walk(snapshot.EncodeWalker(e)) }
	fired := slices.IndexFunc(flows, func(f workload.FlowSpec) bool { return f.Start >= sim.Time(now) })
	if fired < 1 {
		t.Fatalf("no flow of %d queued across the snapshot instant", len(flows))
	}
	arrival := func(fix func(c *arrivalCursor)) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) {
			c := &arrivalCursor{until: span, base: base, fired: fired, n: len(flows), next: flows[fired], gen: &scheduleGen{seed: 1, span: span}}
			fix(c)
			w := snapshot.EncodeWalker(e)
			w.Mark(tagCursor)
			snapshot.I64(w, &c.from)
			snapshot.I64(w, &c.until)
			w.U64(&c.base)
			w.Int(&c.fired)
			w.Int(&c.n)
			w.U64(&c.gen.seed)
			snapshot.I64(w, &c.gen.span)
			w.Raw(c.gen.traceSum[:])
			snapshot.I64(w, &c.next.Start)
			w.Int(&c.next.UE)
			w.I64(&c.next.Size)
			w.Bool(&c.next.Incast)
		}
	}
	cases := []struct {
		name    string
		section string
		at      int64
		kind    uint8
		fields  func(*snapshot.Encoder)
		cursor  func(*snapshot.Encoder) // in place of an event
		ok      bool
	}{
		{name: "valid arrival (control)", section: "pending", cursor: arrival(func(*arrivalCursor) {}), ok: true},
		{name: "ack for a flow already torn down (control)", section: "pending", at: now, kind: evAck,
			fields: func(e *snapshot.Encoder) { e.Int(0); tuple(e); e.I64(1) }, ok: true},
		{name: "arrival with negative UE", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.next.UE = -1 })},
		{name: "arrival with zero size", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.next.Size = 0 })},
		{name: "arrival past its schedule's end", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.fired = c.n + 1 })},
		{name: "arrival cursor of another schedule length", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.n-- })},
		{name: "arrival cursor of another seed", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.gen.seed++ })},
		{name: "arrival cursor of a 2^20 times longer span", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.gen.span <<= 20 })},
		{name: "arrival cursor with a trace digest and no trace", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.gen.traceSum[0] = 1 })},
		{name: "arrival cursor whose seq band starts past the engine's counter", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.base += 1 << 30 })},
		{name: "arrival cursor whose seq band runs past the engine's counter", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.n++ })},
		{name: "arrival cursor of a 2^40 longer schedule over a 2^30 times longer span", section: "pending", cursor: arrival(inflateCursor)},
		{name: "arrival queued after its span", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.gen.span = c.next.Start - 1 })},
		{name: "arrival before the snapshot instant", section: "pending", cursor: arrival(func(c *arrivalCursor) { c.fired--; c.next = flows[c.fired] })},
		{name: "packet for a UE out of range", section: "pending", at: now, kind: evPacket,
			fields: func(e *snapshot.Encoder) { e.Int(h.Config.NumUEs); (&ip.Packet{}).Walk(snapshot.EncodeWalker(e)) }},
		{name: "ack for a negative UE", section: "pending", at: now, kind: evAck,
			fields: func(e *snapshot.Encoder) { e.Int(-1); tuple(e); e.I64(1) }},
		{name: "unknown kind", section: "pending", at: now, kind: 99},
		{name: "zero kind", section: "pending", at: now, kind: 0},
		{name: "external key with no handler attached", section: "pending", at: now, kind: evExternal,
			fields: func(e *snapshot.Encoder) { e.U64(2) }},
		{name: "event before the snapshot instant", section: "pending", at: now - 1, kind: evTrackerReset},
		{name: "AM status on a UM bearer", section: "ue0", at: now, kind: evAMStatus},
		{name: "cell-level kind in a UE section", section: "ue0", at: now, kind: evTrackerFreeze},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spliced := reseal(t, img, func(name string, raw []byte) []byte {
				if name != tc.section {
					return raw
				}
				var e snapshot.Encoder
				// Both sections end in their (zero) event count, the
				// pending section then in its (zero) cursor count.
				if name == "pending" {
					raw = raw[:len(raw)-4]
				}
				e.Raw(raw[:len(raw)-4])
				if tc.cursor != nil {
					e.U32(0)
					e.U32(1)
					tc.cursor(&e)
					return e.Bytes()
				}
				e.U32(1)
				e.U64(1 << 40) // seq
				e.I64(tc.at)
				e.U8(tc.kind)
				if tc.fields != nil {
					tc.fields(&e)
				}
				if name == "pending" {
					e.U32(0)
				}
				return e.Bytes()
			})
			bad, err := snapshot.Open(spliced)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCell(h.Config)
			if err != nil {
				t.Fatal(err)
			}
			err = fresh.RestoreSnapshot(bad)
			if !tc.ok {
				if !errors.Is(err, snapshot.ErrCorrupt) {
					t.Fatalf("restore error = %v, want snapshot.ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid record rejected: %v", err)
			}
			// The control records prove the splice itself is well-formed:
			// they re-encode to the same bytes and fire without incident.
			again, err := fresh.Snapshot()
			if err != nil || !bytes.Equal(again, spliced) {
				t.Fatalf("restored control record does not re-encode identically (err %v)", err)
			}
			fresh.Run(idle.Eng.Now() + 100*sim.Millisecond)
		})
	}

	// One byte appended to a section is input its walk did not write:
	// every section, not only the ones that used to check, rejects it.
	kcfg := h.Config
	kcfg.KPIEvery = 100 * sim.Millisecond // so there is a kpi section too
	tailed, err := NewCell(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	tailed.Run(10 * sim.Millisecond)
	img, err = tailed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	names := sectionNames(t, img)
	if want := []string{"config", "engine", "cell", "metrics", "kpi", "ue0"}; !reflect.DeepEqual(names[:len(want)], want) || names[len(names)-1] != "pending" {
		t.Fatalf("archive sections %v; the trailing-byte cases assume config, engine, cell, metrics, kpi, ue<i>, pending", names)
	}
	for _, victim := range names {
		t.Run("trailing byte in "+victim, func(t *testing.T) {
			bad, err := snapshot.Open(reseal(t, img, func(name string, raw []byte) []byte {
				if name == victim {
					raw = append(raw, 0)
				}
				return raw
			}))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCell(kcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.RestoreSnapshot(bad); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("restore error = %v, want snapshot.ErrCorrupt", err)
			}
		})
	}
}

// TestRestoreRejectsUnsortedFlowTable: a CRC-valid archive whose PDCP
// flow table has two entries out of key order fails the restore with
// ErrCorrupt (FuzzRestoreSnapshot carries the same archive as a seed).
func TestRestoreRejectsUnsortedFlowTable(t *testing.T) {
	s := archiveShapes[0]
	c := s.build(t)
	img, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	victim, payload := unsortedFlowTable(t, c)
	bad, err := snapshot.Open(reseal(t, img, func(name string, raw []byte) []byte {
		if name == victim {
			return payload
		}
		return raw
	}))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCell(s.harness().Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreSnapshot(bad); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restore error = %v, want snapshot.ErrCorrupt", err)
	}
}

// midCQIGoldenSHA256 is the sha256 of the archive TestSnapshotMidCQIPeriod
// takes, recorded from the commit before CQI reports became
// demand-driven (amd64). Re-recorded once when each armed timer came to
// own one queue entry: only the engine section's processed count moved;
// and once for snapshot version 2: only the version and the pending
// section moved.
const midCQIGoldenSHA256 = "54af265a0ccbeebe1899595ae6dd29fe5b59cf3faee7748838e89baf330a03da"

// TestSnapshotMidCQIPeriod checkpoints between two CQI ticks, when most
// UEs are idle and hold a report nobody has read yet. SnapshotTo
// measures those reports, so the archive is the one an eager cell
// writes — its digest is pinned to the parent commit's — and the
// restored cell, which starts with nothing outstanding, continues
// byte-identically next to the original: trace, KPI stream, summary and
// a second snapshot at the horizon.
func TestSnapshotMidCQIPeriod(t *testing.T) {
	h := resumeScenario(SchedOutRAN, AM)
	h.Config.KPIEvery = 100 * sim.Millisecond
	const mid = 432 * sim.Millisecond // 2 ms after the tick at 430 ms

	// drive runs the cell to until, sampling KPIs on the way.
	drive := func(c *Cell, until sim.Time) []obs.KPIRecord {
		var recs []obs.KPIRecord
		every := h.Config.KPIEvery
		now := c.Eng.Now()
		for at := (now/every + 1) * every; at <= until; at += every {
			c.Run(at)
			recs = append(recs, c.SampleKPI(at).Rec)
		}
		c.Run(until)
		return recs
	}
	outstanding := func(c *Cell) int {
		n := 0
		for _, ue := range c.ues {
			if ue.cqiDue {
				n++
			}
		}
		return n
	}

	sinkA := obs.NewRingSink(0)
	h.Tracer = obs.NewTracer(sinkA)
	cellA, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	drive(cellA, mid)
	if n := outstanding(cellA); 2*n <= len(cellA.ues) {
		t.Fatalf("only %d of %d UEs hold an unmeasured report at %v; pick an instant where most do", n, len(cellA.ues), mid)
	}
	img, err := cellA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := outstanding(cellA); n != 0 {
		t.Fatalf("%d reports still outstanding after the snapshot", n)
	}
	if runtime.GOARCH == "amd64" {
		if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != midCQIGoldenSHA256 {
			t.Errorf("archive digest %s, parent commit wrote %s", got, midCQIGoldenSHA256)
		}
	}
	eventsAtMid := len(sinkA.Events())

	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	cellB, err := NewCell(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	sinkB := obs.NewRingSink(0)
	cellB.SetTracerResumed(obs.NewTracer(sinkB))
	if err := cellB.RestoreSnapshot(a); err != nil {
		t.Fatal(err)
	}
	if n := outstanding(cellB); n != 0 {
		t.Fatalf("restored cell holds %d outstanding reports; the t = 0 one must not survive restore", n)
	}

	kpiA := drive(cellA, h.Total())
	kpiB := drive(cellB, h.Total())
	if len(kpiA) == 0 || !reflect.DeepEqual(kpiA, kpiB) {
		t.Fatalf("KPI streams differ after the checkpoint (%d vs %d records)", len(kpiA), len(kpiB))
	}
	// The original's whole run against its own prefix plus the restored
	// cell's suffix: FCT samples, trace and summary.
	compareRuns(t,
		runResult{summary: cellA.Summary(), fct: cellA.FCT.Samples(), events: sinkA.Events()},
		runResult{summary: cellB.Summary(), fct: cellB.FCT.Samples(),
			events: append(sinkA.Events()[:eventsAtMid:eventsAtMid], sinkB.Events()...)})
	endA, err := cellA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	endB, err := cellB.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Equal to the byte, the engine's processed-event count included: every
	// event either cell fires is live, so both count the same ones.
	if !bytes.Equal(endA, endB) {
		t.Fatalf("snapshots at the horizon differ (%d vs %d bytes, %d vs %d events processed)",
			len(endA), len(endB), cellA.Eng.Processed(), cellB.Eng.Processed())
	}
}

// reseal rebuilds a snapshot image section by section, edit returning
// the payload to seal under each name — CRC-valid whatever it holds.
func reseal(t testing.TB, img []byte, edit func(name string, payload []byte) []byte) []byte {
	t.Helper()
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	var b snapshot.Builder
	for _, name := range a.Names() {
		d, err := a.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 0, d.Remaining())
		for d.Remaining() > 0 {
			raw = append(raw, d.U8())
		}
		var e snapshot.Encoder
		e.Raw(edit(name, raw))
		b.Add(name, &e)
	}
	return b.Bytes()
}

// sectionNames lists a snapshot image's sections in file order.
func sectionNames(t testing.TB, img []byte) []string {
	t.Helper()
	a, err := snapshot.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	return a.Names()
}

// sectionBytes splits a snapshot image into its sections' payloads.
func sectionBytes(t testing.TB, img []byte) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	reseal(t, img, func(name string, payload []byte) []byte {
		out[name] = payload
		return payload
	})
	return out
}

// TestHarqTBFieldsWalked: every field of a transport block is checkpoint
// state.
func TestHarqTBFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, func(tb *harqTB, w *snapshot.Walker) {
		p := tb
		walkHarqTB(rlc.NewRefs(w), &p)
		*tb = *p
	}, nil)
}
