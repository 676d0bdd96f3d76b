package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// smallCell is the scaled-down cell every fault test runs on.
func smallCell(sched ran.SchedulerKind, mode ran.RLCMode) ran.Config {
	cfg := ran.DefaultLTEConfig()
	cfg.NumUEs = 6
	cfg.Grid.NumRB = 25
	cfg.Scheduler = sched
	cfg.RLC = mode
	return cfg
}

// chaosCell is smallCell with the chaos runs' workload declared on it.
func chaosCell(sched ran.SchedulerKind, mode ran.RLCMode) ran.Config {
	return smallCell(sched, mode).WithWorkload(workload.PoissonSpec("lte", 0.6))
}

// runChaos runs rc to the end and collects it.
func runChaos(t *testing.T, rc RunConfig) Result {
	t.Helper()
	res, err := rc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPlanDeterminism(t *testing.T) {
	pc := PlanConfig{NumUEs: 10, Horizon: 2 * sim.Second, Intensity: 1}
	p1 := NewPlan(99, pc)
	p2 := NewPlan(99, pc)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different plans")
	}
	if len(p1) == 0 {
		t.Fatal("intensity-1 plan over 2 s is empty")
	}
	for i := 1; i < len(p1); i++ {
		if p1[i].Start < p1[i-1].Start {
			t.Fatalf("plan not sorted at %d: %v after %v", i, p1[i], p1[i-1])
		}
	}
	if p3 := NewPlan(100, pc); reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds produced identical plans")
	}
	if p := NewPlan(99, PlanConfig{NumUEs: 10, Horizon: sim.Second}); p != nil {
		t.Fatal("zero intensity should yield an empty plan")
	}
}

// TestChaosDeterminism is satellite 4: the PR 1 same-seed gates
// extended to chaos runs. Identical fault schedule + seed must yield
// identical FCT traces, stats, invariant reports, and injector stats.
func TestChaosDeterminism(t *testing.T) {
	for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			run := func() Result {
				return runChaos(t, RunConfig{
					Cell:      chaosCell(sched, ran.AM),
					Duration:  800 * sim.Millisecond,
					Drain:     4 * sim.Second,
					Intensity: 1,
					Seed:      42,
				})
			}
			r1, r2 := run(), run()
			if !reflect.DeepEqual(r1.Plan, r2.Plan) {
				t.Fatal("fault plans differ between same-seed runs")
			}
			if len(r1.Samples) == 0 {
				t.Fatal("no flows completed under chaos")
			}
			if len(r1.Samples) != len(r2.Samples) {
				t.Fatalf("completed %d vs %d flows", len(r1.Samples), len(r2.Samples))
			}
			for i := range r1.Samples {
				if r1.Samples[i] != r2.Samples[i] {
					t.Fatalf("FCT trace diverges at flow %d: %+v vs %+v", i, r1.Samples[i], r2.Samples[i])
				}
			}
			if r1.Stats != r2.Stats {
				t.Fatalf("stats differ:\n run 1: %+v\n run 2: %+v", r1.Stats, r2.Stats)
			}
			if r1.Injector != r2.Injector {
				t.Fatalf("injector stats differ:\n run 1: %+v\n run 2: %+v", r1.Injector, r2.Injector)
			}
			m1, m2 := r1.Invariants, r2.Invariants
			if m1.Checks != m2.Checks || m1.Deliveries != m2.Deliveries || m1.Violated != m2.Violated {
				t.Fatalf("invariant reports differ:\n run 1: %+v\n run 2: %+v", m1, m2)
			}
		})
	}
}

// TestMonitorCleanBaseline runs the cell's invariant checker with no
// injection over both RLC modes and both schedulers: a fault-free
// simulation must not trip a single invariant.
func TestMonitorCleanBaseline(t *testing.T) {
	for _, mode := range []ran.RLCMode{ran.UM, ran.AM} {
		for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
			mode, sched := mode, sched
			t.Run(mode.String()+"/"+string(sched), func(t *testing.T) {
				res := runChaos(t, RunConfig{
					Cell:     chaosCell(sched, mode),
					Duration: 600 * sim.Millisecond,
					Drain:    4 * sim.Second,
					Seed:     7,
				})
				if !res.Invariants.Clean() {
					t.Fatalf("baseline run violated invariants: %v", res.Invariants.Violations)
				}
				if res.Invariants.Checks == 0 || res.Invariants.Deliveries == 0 {
					t.Fatalf("checker observed nothing: %+v", res.Invariants)
				}
				if res.Stats.Reestablishments != 0 || res.Injector != (InjectorStats{}) {
					t.Fatalf("baseline run injected faults: %+v %+v", res.Stats, res.Injector)
				}
			})
		}
	}
}

// TestChaosSweepNoViolations is the multi-seed acceptance gate in
// miniature: randomized fault schedules across seeds and schedulers,
// AM mode, with the checker on — zero invariant violations, and the
// faults must demonstrably bite (injections observed, RLFs performed).
func TestChaosSweepNoViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos sweep")
	}
	var agg InjectorStats
	var reest uint64
	// Whether a fault class bites inside a short window is seed-luck;
	// these seeds were picked so every class demonstrably fires under
	// the workload engine's arrival stream. A PDU-loss window bites only
	// while its UE is being served; under seeds 10–13 every window but
	// one opens after its UE's last PDU, and that one let its one PDU
	// through.
	for _, sched := range []ran.SchedulerKind{ran.SchedPF, ran.SchedOutRAN} {
		for seed := uint64(18); seed <= 21; seed++ {
			res := runChaos(t, RunConfig{
				Cell:      chaosCell(sched, ran.AM),
				Duration:  800 * sim.Millisecond,
				Drain:     4 * sim.Second,
				Intensity: 1.5,
				Seed:      seed,
			})
			if !res.Invariants.Clean() {
				t.Fatalf("%s seed %d: invariant violations: %v", sched, seed, res.Invariants.Violations)
			}
			agg.CQIDropped += res.Injector.CQIDropped
			agg.HARQFlipped += res.Injector.HARQFlipped
			agg.PDUsDropped += res.Injector.PDUsDropped
			agg.BackhaulDropped += res.Injector.BackhaulDropped
			agg.RLFs += res.Injector.RLFs
			agg.ForcedRLFs += res.Injector.ForcedRLFs
			reest += res.Stats.Reestablishments
		}
	}
	if agg.CQIDropped == 0 || agg.HARQFlipped == 0 || agg.PDUsDropped == 0 {
		t.Fatalf("chaos did not bite: %+v", agg)
	}
	if reest == 0 {
		t.Fatalf("no re-establishment exercised across the sweep: %+v", agg)
	}
}

// TestForceRLFReestablish pins the re-establishment path directly: a
// single ForceRLF event mid-run must re-anchor the UE (entities
// rebuilt, flow-state preserved) with the checker staying clean and
// traffic still completing.
func TestForceRLFReestablish(t *testing.T) {
	cfg := smallCell(ran.SchedOutRAN, ran.AM)
	cell, err := ran.NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell.InstallChecker()
	inj := NewInjector(cell, 5)
	plan := Plan{{Kind: ForceRLF, UE: 0, Start: 100 * sim.Millisecond}}
	Attach(cell, plan, inj)

	done := 0
	for i := 0; i < 4; i++ {
		if err := cell.StartFlow(0, 200_000, ran.FlowOptions{
			OnComplete: func(sim.Time) { done++ },
		}); err != nil {
			t.Fatal(err)
		}
	}
	cell.Run(10 * sim.Second)

	if got := cell.CollectStats().Reestablishments; got != 1 {
		t.Fatalf("reestablishments = %d, want 1", got)
	}
	if inj.Stats().ForcedRLFs != 1 {
		t.Fatalf("forced RLFs = %d, want 1", inj.Stats().ForcedRLFs)
	}
	if done != 4 {
		t.Fatalf("only %d/4 flows completed after re-establishment", done)
	}
	if rep := cell.InvariantReport(); !rep.Clean() {
		t.Fatalf("invariant violations after re-establishment: %v", rep.Violations)
	}
}

// TestNaturalRLFFromPDULoss drives the full satellite-1 signal path at
// cell level: a sustained 100% RLC PDU loss burst makes the AM
// transmitter exhaust maxRetx, every abandonment is surfaced in
// ran.Stats (AMDeliveryFailures), the failure streak trips a natural
// radio-link failure, and after the burst lifts traffic completes with
// the checker clean.
func TestNaturalRLFFromPDULoss(t *testing.T) {
	cfg := smallCell(ran.SchedPF, ran.AM)
	cell, err := ran.NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell.InstallChecker()
	inj := NewInjector(cell, 3)
	// One abandonment takes ~8 poll-retransmit cycles, so a 1.5 s burst
	// yields only a couple; declare RLF on the first.
	inj.rlfThreshold = 1
	plan := Plan{{Kind: PDULoss, UE: 0, Start: 20 * sim.Millisecond,
		Duration: 1500 * sim.Millisecond, Magnitude: 1.0}}
	Attach(cell, plan, inj)

	done := 0
	if err := cell.StartFlow(0, 300_000, ran.FlowOptions{
		OnComplete: func(sim.Time) { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	cell.Run(20 * sim.Second)

	st := cell.CollectStats()
	if st.AMAbandoned == 0 {
		t.Fatal("sustained PDU loss never exhausted maxRetx")
	}
	if st.AMDeliveryFailures != st.AMAbandoned {
		t.Fatalf("stats: %d abandoned but %d delivery failures signalled",
			st.AMAbandoned, st.AMDeliveryFailures)
	}
	if inj.Stats().RLFs == 0 || st.Reestablishments == 0 {
		t.Fatalf("abandonment streak never tripped a natural RLF: inj=%+v stats=%+v",
			inj.Stats(), st)
	}
	if done != 1 {
		t.Fatal("flow never completed after the loss burst lifted")
	}
	if rep := cell.InvariantReport(); !rep.Clean() {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
}

// TestChaosCellRefusesSnapshot: a cell run to mid-plan still holds the
// injector's pending transitions. They are the injector's events, not
// the cell's, so a checkpoint would drop them: Snapshot refuses,
// counting them.
func TestChaosCellRefusesSnapshot(t *testing.T) {
	cfg := smallCell(ran.SchedOutRAN, ran.AM)
	cell, err := ran.NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(42, PlanConfig{NumUEs: cfg.NumUEs, Horizon: sim.Second, Intensity: 1})
	cell.InstallChecker()
	Attach(cell, plan, NewInjector(cell, 7))
	const mid = 850 * sim.Millisecond // two CQI blackouts active, six transitions ahead
	cell.Run(mid)
	transitions, pending := 0, 0
	for _, ev := range plan {
		at := []sim.Time{ev.Start}
		if ev.Kind != ForceRLF {
			at = append(at, ev.End())
		}
		for _, a := range at {
			transitions++
			if a > mid {
				pending++
			}
		}
	}
	if pending == 0 || pending == transitions {
		t.Fatalf("%d of the plan's %d transitions pending at %v; the cell is not mid-plan", pending, transitions, mid)
	}
	_, err = cell.Snapshot()
	want := fmt.Sprintf("%d pending events of handlers other than the cell", pending)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("snapshot error = %v, want one holding %q", err, want)
	}
}
