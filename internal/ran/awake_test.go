package ran

import (
	"fmt"
	"slices"
	"testing"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// fullRebuild is the rule the awake list replaced, kept here as the
// reference: every TTI, every UE's buffer status is rebuilt from its
// RLC entity and pending HARQ bytes, and every UE's PF average is
// decayed by what it was served.
type fullRebuild struct {
	status []mac.BufferStatus // each UE's fresh txStatus, PerPriority copied
	avg    []float64          // each UE's eagerly updated PF average
}

// take records every UE's fresh status. Status is a function of the
// entity's state alone, so taken after the last event before a TTI it
// is what that TTI's full rebuild would have read.
func (f *fullRebuild) take(c *Cell) {
	for i, ue := range c.ues {
		st := ue.txStatus(c.Eng.Now())
		st.PerPriority = slices.Clone(st.PerPriority)
		f.status[i] = st
	}
}

// caughtUpAvg is UE i's PF average as a KPI sample or checkpoint would
// read it, without leaving the catch-up applied: the lazy path under
// test keeps its state.
func caughtUpAvg(c *Cell, i int) float64 {
	ue := c.ues[i]
	avg, at := ue.macUser.AvgTputBps, ue.avgAt
	c.catchUpAvg(ue)
	got := ue.macUser.AvgTputBps
	ue.macUser.AvgTputBps, ue.avgAt = avg, at
	return got
}

// rebuildDiff steps a cell event by event next to the full rebuild.
// After every TTI each UE's Buffer must equal the full rebuild's status
// at the TTI's start, and its caught-up PF average the eager one; a UE
// served in the TTI must be on the awake list, whose averages are
// eager, and seeds the reference with its own. The awake list must be
// ascending and hold exactly the listed UEs not still waiting in woken.
type rebuildDiff struct {
	t    *testing.T
	cell *Cell
	ref  fullRebuild

	ttis, offList int // TTIs, and UE-TTIs spent off the awake list
	// timerWakes counts UEs woken by an event the cell did not handle:
	// a timer's, which in a run without a fault injector only an AM
	// entity's t-PollRetransmit can do.
	timerWakes int
}

func newRebuildDiff(t *testing.T, cell *Cell) *rebuildDiff {
	n := len(cell.ues)
	d := &rebuildDiff{t: t, cell: cell, ref: fullRebuild{status: make([]mac.BufferStatus, n), avg: make([]float64, n)}}
	d.ref.take(cell)
	return d
}

// run steps the cell until its clock reaches until.
func (d *rebuildDiff) run(until sim.Time) {
	t, cell, ref := d.t, d.cell, &d.ref
	t.Helper()
	tti, window := cell.grid.TTI(), cell.cfg.FairnessWindow
	listed := make([]bool, len(cell.ues))
	for cell.Eng.Now() < until {
		for i, ue := range cell.ues {
			listed[i] = ue.listed
		}
		en, ok := cell.Eng.Step()
		if !ok {
			break
		}
		if en.H != sim.Handler(cell) {
			for i, ue := range cell.ues {
				if ue.listed && !listed[i] {
					d.timerWakes++
				}
			}
		}
		if en.H == sim.Handler(cell) && en.Ev.Kind == evTTI {
			d.ttis++
			now := en.At
			if !slices.IsSorted(cell.awake) {
				t.Fatalf("t=%v: awake list %v not ascending", now, cell.awake)
			}
			for i, ue := range cell.ues {
				u := ue.macUser
				if got, want := u.Buffer, ref.status[i]; !sameStatus(got, want) {
					t.Fatalf("t=%v: UE %d holds status %+v, the full rebuild %+v", now, i, got, want)
				}
				awake := slices.Contains(cell.awake, i)
				if ue.listed != (awake || slices.Contains(cell.woken, i)) {
					t.Fatalf("t=%v: UE %d listed=%v, awake %v, woken %v", now, i, ue.listed, cell.awake, cell.woken)
				}
				if !awake {
					d.offList++
				}
				if u.LastServed == now {
					if !awake {
						t.Fatalf("t=%v: UE %d served, then left the awake list", now, i)
					}
					ref.avg[i] = u.AvgTputBps
				} else {
					eager := mac.User{AvgTputBps: ref.avg[i]}
					eager.UpdateAvgTput(0, tti, window)
					ref.avg[i] = eager.AvgTputBps
				}
				if got := caughtUpAvg(cell, i); got != ref.avg[i] {
					t.Fatalf("t=%v: UE %d's caught-up PF average %v, eager %v", now, i, got, ref.avg[i])
				}
			}
		}
		ref.take(cell)
	}
}

// finish checks the run exercised the idle path and broke no invariant.
func (d *rebuildDiff) finish() {
	d.t.Helper()
	d.t.Logf("%d TTIs, %d UE-TTIs off the list, %d timer wakes, %d flows", d.ttis, d.offList, d.timerWakes, d.cell.FCT.Started())
	if r := d.cell.InvariantReport(); !r.Clean() {
		d.t.Fatalf("invariant checker: %d violations, first %v", r.Violated, r.Violations[0])
	}
	if d.offList == 0 {
		d.t.Fatal("no UE ever left the awake list; the idle path is not exercised")
	}
}

// runAgainstFullRebuild is one rebuildDiff run from the cell's start.
func runAgainstFullRebuild(t *testing.T, cell *Cell, until sim.Time) *rebuildDiff {
	t.Helper()
	d := newRebuildDiff(t, cell)
	d.run(until)
	d.finish()
	return d
}

// sameStatus compares two buffer statuses field by field, PerPriority
// by content.
func sameStatus(a, b mac.BufferStatus) bool {
	return a.TotalBytes == b.TotalBytes && slices.Equal(a.PerPriority, b.PerPriority) &&
		a.HOLArrival == b.HOLArrival && a.OracleMinRemaining == b.OracleMinRemaining &&
		a.QoSBytes == b.QoSBytes && a.QoSHOLArrival == b.QoSHOLArrival && a.QoSDelayBudget == b.QoSDelayBudget
}

// TestAwakeListMatchesFullRebuild runs every scheduler in both RLC modes
// on an LTE and an NR μ1 cell against the full per-UE rebuild, with the
// invariant checker on. PSS and CQA carry QoS flows, so the head-of-line
// list that Status prunes is exercised.
func TestAwakeListMatchesFullRebuild(t *testing.T) {
	scheds := []SchedulerKind{SchedPF, SchedMT, SchedRR, SchedSRJF, SchedPSS, SchedCQA, SchedOutRAN, SchedStrictMLFQ}
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"LTE", DefaultLTEConfig().WithTopology(8, 25).WithWorkload(workload.PoissonSpec("lte", 0.6))},
		{"NRmu1", Default5GConfig(phy.Mu1).WithTopology(8, 51).WithWorkload(workload.PoissonSpec("mirage", 0.7))},
	}
	for _, shape := range shapes {
		for _, mode := range []RLCMode{UM, AM} {
			for _, sched := range scheds {
				cfg := shape.cfg.WithSeed(11)
				cfg.Scheduler, cfg.RLC = sched, mode
				cfg.QoSShortFlows = sched == SchedPSS || sched == SchedCQA
				t.Run(fmt.Sprintf("%s/%v/%s", shape.name, mode, sched), func(t *testing.T) {
					cell, err := Harness{Config: cfg, Window: 800 * sim.Millisecond, Setup: checked}.Build()
					if err != nil {
						t.Fatal(err)
					}
					runAgainstFullRebuild(t, cell, 1200*sim.Millisecond)
				})
			}
		}
	}
}

func checked(c *Cell) error { c.InstallChecker(); return nil }

// reestablisher runs a deferred ReestablishUE, as the fault injector
// does on a radio-link failure.
type reestablisher struct{ c *Cell }

func (r reestablisher) Fire(ev sim.Event) {
	if err := r.c.ReestablishUE(int(ev.Idx)); err != nil {
		panic(err)
	}
}

// TestAwakeListUnderChaos is the differential run under every fault
// hook at once: fades, lost CQI reports, flipped HARQ feedback, lost
// RLC PDUs, backhaul jitter and loss, and a re-establishment on every
// AM delivery failure, with KPI samples catching every average up.
func TestAwakeListUnderChaos(t *testing.T) {
	r := rng.New(5)
	var cell *Cell
	hooks := FaultHooks{
		SINROffsetDB: func(ue int, now sim.Time) float64 {
			if w := int(now / (60 * sim.Millisecond)); w%3 == 1 && w%8 == ue {
				return -15
			}
			return 0
		},
		DropCQIReport:       func(ue int, now sim.Time) bool { return (int(now/(5*sim.Millisecond))+ue)%5 == 0 },
		CorruptHARQFeedback: func(_ int, _ sim.Time, ok bool) bool { return ok != (r.Float64() < 0.05) },
		// Each UE in turn loses every PDU for 500 ms, long enough for AM
		// to exhaust maxRetx on one.
		DropRLCPDU: func(ue int, now sim.Time, _ *rlc.PDU) bool {
			return ue == int(now/(500*sim.Millisecond)) || r.Float64() < 0.03
		},
		Backhaul: func(sim.Time) (sim.Time, bool) {
			return sim.Time(r.Float64() * float64(2*sim.Millisecond)), r.Float64() < 0.01
		},
		OnDeliveryFail: func(ue int, _ uint32) {
			cell.Eng.Schedule(cell.Eng.Now(), reestablisher{cell}, sim.Event{Idx: int32(ue)})
		},
	}
	for _, mode := range []RLCMode{UM, AM} {
		cfg := DefaultLTEConfig().WithTopology(8, 25).WithSeed(3).WithWorkload(workload.PoissonSpec("lte", 0.7))
		cfg.Scheduler, cfg.RLC = SchedOutRAN, mode
		cfg.KPIEvery = 100 * sim.Millisecond
		t.Run(mode.String(), func(t *testing.T) {
			c, err := Harness{Config: cfg, Window: 1500 * sim.Millisecond, Setup: func(c *Cell) error {
				c.SetFaultHooks(hooks)
				return checked(c)
			}}.Build()
			if err != nil {
				t.Fatal(err)
			}
			cell = c
			// A bulk flow into each UE's loss spell gives AM a polled
			// PDU to lose.
			for ue := range 4 {
				cell.Eng.At(sim.Time(ue)*500*sim.Millisecond+50*sim.Millisecond, func() {
					if err := cell.StartFlow(ue, 256<<10, FlowOptions{}); err != nil {
						t.Fatal(err)
					}
				})
			}
			d := newRebuildDiff(t, cell)
			for at := cfg.KPIEvery; at <= 2*sim.Second; at += cfg.KPIEvery {
				d.run(at)
				cell.SampleKPI(at)
			}
			d.finish()
			t.Logf("%d re-establishments, %d AM delivery failures", cell.ctrReestablish.Value(), cell.ctrAMDeliveryFails.Value())
			if mode == AM && cell.ctrReestablish.Value() == 0 {
				t.Error("no re-establishment; the wireBearer wake is not exercised")
			}
		})
	}
}

// TestPollRetransmitWakesIdleUE loses the first transmission of every
// polled AM PDU and every new PDU of that UE for 100 ms after it. With
// no ACK coming the UE's transport stalls and its buffer drains, and no
// later PDU shows the receiver a gap: only t-PollRetransmit can give
// the idle UE bytes to send again, through the wake callback wireBearer
// gives the entity.
func TestPollRetransmitWakesIdleUE(t *testing.T) {
	cfg := DefaultLTEConfig().WithTopology(8, 25).WithSeed(9).WithWorkload(workload.PoissonSpec("lte", 0.6))
	cfg.Scheduler, cfg.RLC = SchedPF, AM
	lossUntil := make([]sim.Time, cfg.NumUEs)
	cell, err := Harness{Config: cfg, Window: 2 * sim.Second, Setup: func(c *Cell) error {
		c.SetFaultHooks(FaultHooks{DropRLCPDU: func(ue int, now sim.Time, p *rlc.PDU) bool {
			if p.Poll && !p.Retx {
				lossUntil[ue] = now + 100*sim.Millisecond
			}
			return !p.Retx && now < lossUntil[ue]
		}})
		return checked(c)
	}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d := runAgainstFullRebuild(t, cell, 3*sim.Second); d.timerWakes == 0 {
		t.Fatal("no idle UE was woken by t-PollRetransmit")
	}
}

// TestNACKWakesIdleUE re-queues a NACKed transport block on a UE off
// the awake list. In a running cell the NACK reaches a UE served one
// TTI before, which is still listed, so only a direct call shows that
// tbArrive wakes the UE itself rather than leaning on that timing; the
// checker rule names the HARQ TB left behind otherwise.
func TestNACKWakesIdleUE(t *testing.T) {
	cell := backloggedCell(t)
	ue := cell.ues[len(cell.ues)-1]
	if ue.listed {
		t.Fatal("last UE still listed; the test would be vacuous")
	}
	cell.SetFaultHooks(FaultHooks{
		CorruptHARQFeedback: func(int, sim.Time, bool) bool { return false },
		DropRLCPDU:          func(int, sim.Time, *rlc.PDU) bool { return true },
	})
	tb := cell.newTB()
	tb.pdus, tb.bits = append(tb.pdus, &rlc.PDU{Bytes: 100}), 800
	cell.tbArrive(ue, tb)
	if err := cell.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(ue.harqPending) != 1 || !ue.listed {
		t.Fatalf("NACKed TB: %d pending, UE listed %v; want 1, true", len(ue.harqPending), ue.listed)
	}
}
