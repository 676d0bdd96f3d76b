package deploy_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"outran/internal/deploy"
	"outran/internal/pdcp"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// TestHandoverPreservesFlowState runs the §7 flow-state transfer
// between two real, live ran.Cells (not the pdcp-level round-trip of
// pdcp/handover_test.go): a long flow accumulates sent-bytes at the
// source until it has demoted below top MLFQ priority, the state is
// exported mid-run and imported at the target, and the target must see
// the same per-flow sent-bytes and the same demoted priority — a
// migrated elephant must not restart as a fresh P0 mouse.
func TestHandoverPreservesFlowState(t *testing.T) {
	cfg := ran.DefaultLTEConfig().
		WithTopology(2, 25).
		ForScheduler(ran.SchedOutRAN)
	src, err := ran.NewCell(cfg.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ran.NewCell(cfg.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.StartFlow(0, 2<<20, ran.FlowOptions{SkipRecord: true}); err != nil {
		t.Fatal(err)
	}

	const at = 150 * sim.Millisecond
	src.Run(at)
	dst.Run(at)

	tuples, err := src.UEFlows(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("source UE 0 tracks %d flows, want 1", len(tuples))
	}
	tuple := tuples[0]
	sent, err := src.FlowSentBytes(0, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if sent <= 10<<10 {
		t.Fatalf("flow sent only %d B by %v — below the first MLFQ demotion threshold, test can't bite", sent, at)
	}
	srcPrio, err := src.FlowPriority(0, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if srcPrio == 0 {
		t.Fatalf("flow with %d B sent still at priority 0 at the source", sent)
	}

	blob, err := src.HandoverExport(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != pdcp.FlowRecordLen*len(tuples) {
		t.Fatalf("export blob is %d B, want %d (= %d flows x %d B)",
			len(blob), pdcp.FlowRecordLen*len(tuples), len(tuples), pdcp.FlowRecordLen)
	}
	if err := dst.HandoverImport(0, blob); err != nil {
		t.Fatal(err)
	}

	gotSent, err := dst.FlowSentBytes(0, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if gotSent != sent {
		t.Fatalf("target sees %d sent bytes, source sent %d", gotSent, sent)
	}
	gotPrio, err := dst.FlowPriority(0, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if gotPrio != srcPrio {
		t.Fatalf("target classifies the flow at priority %d, source had %d", gotPrio, srcPrio)
	}

	// The migrated UE's traffic resumes at the target on the same
	// five-tuple and must complete there.
	conn, err := dst.AdoptConn(0, tuple)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	err = dst.StartFlow(0, 64<<10, ran.FlowOptions{
		Conn:       conn,
		SkipRecord: true,
		OnComplete: func(sim.Time) { done = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	dst.Run(at + 5*sim.Second)
	if !done {
		t.Fatal("continuation flow did not complete at the target cell")
	}
}

// TestDeploymentHandover drives the same §7 transfer through the
// deployment runtime's scripted path: a single long flow on cell 0's
// UE 0, a handover to cell 1 mid-run, and a recorded continuation flow
// at the target. The cells replay per-cell workload traces
// (w.cell0.jsonl holds the flow, w.cell1.jsonl none), so the target
// holds no flow of its own on the migrated five-tuple.
func TestDeploymentHandover(t *testing.T) {
	dir := t.TempDir()
	for i, flows := range [][]workload.FlowSpec{
		{{Start: 10 * sim.Millisecond, UE: 0, Size: 1 << 20}},
		nil,
	} {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("w.cell%d.jsonl", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.WriteTrace(f, flows); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const at = 200 * sim.Millisecond
	cfg := deploy.Config{
		Cells: 2,
		Cell: ran.DefaultLTEConfig().
			WithTopology(2, 25).
			ForScheduler(ran.SchedOutRAN).
			WithWorkload(workload.ReplaySpec(filepath.Join(dir, "w.jsonl"))),
		Window: 300 * sim.Millisecond,
		Drain:  5 * sim.Second,
		Seed:   11,
	}
	base, err := deploy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same deployment stopped at the handover instant: its source
	// holds the sent-bytes the handover exports.
	probe := cfg
	probe.Window, probe.Drain = at, 0
	upTo, err := deploy.Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Handovers = []deploy.Handover{{
		At: at, UE: 0, From: 0, To: 1, ContinueBytes: 64 << 10,
	}}
	res, err := deploy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.HandoversApplied != 1 {
		t.Fatalf("handovers applied = %d, want 1", res.Aggregate.HandoversApplied)
	}
	if res.Aggregate.FlowsTransferred != 1 {
		t.Fatalf("flows transferred = %d, want 1", res.Aggregate.FlowsTransferred)
	}
	// The target cell ran exactly one flow more than without the
	// handover: the recorded continuation.
	target, alone := res.Cells[1].Summary.Counters, base.Cells[1].Summary.Counters
	if target.FlowsStarted != alone.FlowsStarted+1 || target.FlowsCompleted != alone.FlowsCompleted+1 {
		t.Fatalf("target cell flows = %d started / %d completed, want %d/%d",
			target.FlowsStarted, target.FlowsCompleted, alone.FlowsStarted+1, alone.FlowsCompleted+1)
	}
	// And it sees the source's sent-bytes for the migrated tuple: the
	// imported count plus the completed continuation, on a tuple it
	// held nothing on without the handover.
	tuples, err := res.Live[0].UEFlows(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 {
		t.Fatalf("source tracks %d flows, want 1", len(tuples))
	}
	if own, err := base.Live[1].FlowSentBytes(0, tuples[0]); err != nil || own != 0 {
		t.Fatalf("target holds %d sent bytes on the tuple without a handover (%v), want 0", own, err)
	}
	exported, err := upTo.Live[0].FlowSentBytes(0, tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	if exported <= 0 {
		t.Fatalf("source sent nothing on the tuple by %v, test can't bite", at)
	}
	got, err := res.Live[1].FlowSentBytes(0, tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := exported + cfg.Handovers[0].ContinueBytes; got != want {
		t.Fatalf("target has %d sent bytes for the migrated flow, want %d (%d imported + %d continued)",
			got, want, exported, cfg.Handovers[0].ContinueBytes)
	}
}
