package obs

import (
	"math"
	"testing"

	"outran/internal/sim"
)

const testFlow = "10.0.0.1:443>10.1.0.2:10001/6"

// fold emits evs into s and closes it.
func fold[S Sink](s S, evs []Event) S {
	for i := range evs {
		s.Emit(&evs[i])
	}
	s.Close()
	return s
}

func syntheticFlow() []Event {
	return []Event{
		{T: 0, Type: EvMeta, Sched: "OutRAN(PF,eps=0.2)", UEs: 2, RBs: 10, Seed: 1},
		{T: 100, Type: EvFlowStart, UE: 2, Flow: testFlow, Size: 20480},
		{T: 150, Type: EvPDCPSN, UE: 2, Flow: testFlow, SN: 0},
		{T: 160, Type: EvMLFQ, UE: 2, Flow: testFlow, Level: 1, Sent: 10240, Threshold: 10000},
		{T: 170, Type: EvPDCPSN, UE: 2, Flow: testFlow, SN: 1},
		{T: 200, Type: EvDeliver, UE: 2, Flow: testFlow, SN: 0},
		{T: 500, Type: EvFlowEnd, UE: 2, Flow: testFlow, Size: 20480, FCT: 400},
	}
}

func TestTimelines(t *testing.T) {
	tl := fold(&Flows{}, syntheticFlow()).List
	if len(tl) != 1 {
		t.Fatalf("got %d timelines, want 1", len(tl))
	}
	f := tl[0]
	if f.Flow != testFlow || f.UE != 2 || f.Size != 20480 {
		t.Fatalf("identity wrong: %+v", f)
	}
	if f.Start != 100 || f.End != 500 || f.FCT != 400 {
		t.Fatalf("span wrong: start=%v end=%v fct=%v", f.Start, f.End, f.FCT)
	}
	if f.FirstTx != 150 || f.FirstDeliver != 200 {
		t.Fatalf("first tx/deliver wrong: %v / %v", f.FirstTx, f.FirstDeliver)
	}
	if f.FinalLevel != 1 {
		t.Fatalf("demotion tracking wrong: level=%d", f.FinalLevel)
	}
	r, ok := f.Residency()
	if !ok {
		t.Fatal("completed flow has no residency")
	}
	want := Residency{Ingress: 50, Air: 50, Drain: 300}
	if r != want {
		t.Fatalf("residency %+v, want %+v", r, want)
	}
	if r.Ingress+r.Air+r.Drain != f.FCT {
		t.Fatal("residency does not sum to FCT")
	}
}

func TestTimelinesIncomplete(t *testing.T) {
	evs := syntheticFlow()[:3] // start + first SN only
	f := fold(&Flows{}, evs).List[0]
	if f.End >= 0 {
		t.Fatal("incomplete flow has an end")
	}
	if _, ok := f.Residency(); ok {
		t.Fatal("incomplete flow yielded a residency breakdown")
	}
}

func TestAuditDecisions(t *testing.T) {
	evs := []Event{
		{T: 1, Type: EvTTI, ServedBits: 100, UsedRBs: 2, AllocRBs: 3},
		{T: 1, Type: EvDecision, RB: 0, Best: 0, Sel: 0, BestM: 2, SelM: 2, Cands: 1},
		{T: 1, Type: EvDecision, RB: 1, Best: 0, Sel: 1, BestM: 2, SelM: 1.5, Level: 1, Cands: 3},
		{T: 2, Type: EvTTI, ServedBits: 50, UsedRBs: 1, AllocRBs: 1},
		{T: 2, Type: EvDecision, RB: 0, Best: 1, Sel: 2, BestM: 4, SelM: 3, Level: 0, Cands: 2},
	}
	a := fold(&Audit{}, evs)
	if a.TTIs != 2 || a.ServedBits != 150 || a.UsedRBs != 3 || a.AllocRBs != 4 {
		t.Fatalf("TTI aggregates wrong: %+v", a)
	}
	if a.Decisions != 3 || a.Overrides != 2 {
		t.Fatalf("decisions=%d overrides=%d, want 3/2", a.Decisions, a.Overrides)
	}
	// Sacrifices: (2-1.5)/2 = 0.25 and (4-3)/4 = 0.25; mean over all 3
	// decision records = 0.5/3.
	if math.Abs(a.SacrificeSum-0.5) > 1e-15 {
		t.Fatalf("sacrifice sum %g, want 0.5", a.SacrificeSum)
	}
	if math.Abs(a.SacrificeMean-0.5/3) > 1e-15 {
		t.Fatalf("sacrifice mean %g, want %g", a.SacrificeMean, 0.5/3)
	}
	if math.Abs(a.CandMean-2) > 1e-15 {
		t.Fatalf("cand mean %g, want 2", a.CandMean)
	}
	if a.OverridesByLevel[0] != 1 || a.OverridesByLevel[1] != 1 {
		t.Fatalf("overrides by level wrong: %v", a.OverridesByLevel)
	}
}

func TestAuditResetAndFreeze(t *testing.T) {
	evs := []Event{
		{T: 1, Type: EvSESample, SE: 100, Fairness: 0.1, ActiveSE: -1}, // warmup, discarded
		{T: 2, Type: EvTrackerReset},
		{T: 3, Type: EvSESample, SE: 1, Fairness: 0.5, ActiveSE: 2},
		{T: 4, Type: EvSESample, SE: 3, Fairness: 0.7, ActiveSE: -1}, // idle block: no active sample
		{T: 5, Type: EvTrackerFreeze},
		{T: 6, Type: EvSESample, SE: 999, Fairness: 0.9, ActiveSE: 4}, // after freeze, ignored
	}
	a := fold(&Audit{}, evs)
	if a.Samples != 2 {
		t.Fatalf("kept %d samples, want 2", a.Samples)
	}
	if a.MeanSE != 2 {
		t.Fatalf("mean SE %g, want 2", a.MeanSE)
	}
	if math.Abs(a.MeanFairness-0.6) > 1e-15 {
		t.Fatalf("mean fairness %g, want 0.6", a.MeanFairness)
	}
	if a.MeanActiveSE != 2 {
		t.Fatalf("mean active SE %g, want 2 (only one active sample)", a.MeanActiveSE)
	}
}

func TestSlowestFlows(t *testing.T) {
	mk := func(flow string, fct sim.Time) []Event {
		return []Event{
			{T: 0, Type: EvFlowStart, Flow: flow, Size: 1000},
			{T: fct, Type: EvFlowEnd, Flow: flow, FCT: fct},
		}
	}
	var evs []Event
	evs = append(evs, mk("a", 30)...)
	evs = append(evs, mk("b", 10)...)
	evs = append(evs, mk("c", 30)...)
	evs = append(evs, Event{T: 5, Type: EvFlowStart, Flow: "d", Size: 9}) // incomplete
	top := SlowestFlows(fold(&Flows{}, evs).List, 2)
	if len(top) != 2 {
		t.Fatalf("got %d flows, want 2", len(top))
	}
	// Equal FCTs break ties by flow id.
	if top[0].Flow != "a" || top[1].Flow != "c" {
		t.Fatalf("order %s,%s; want a,c", top[0].Flow, top[1].Flow)
	}
}

// TestAuditMeta: the audit keeps the trace's first meta event, and a
// trace without one leaves Meta zero.
func TestAuditMeta(t *testing.T) {
	evs := syntheticFlow()
	second := Event{T: 9, Type: EvMeta, Sched: "PF"}
	if meta := fold(&Audit{}, append(evs, second)).Meta; meta != evs[0] {
		t.Fatalf("meta = %+v, want the first %+v", meta, evs[0])
	}
	if meta := fold(&Audit{}, evs[1:]).Meta; meta != (Event{}) {
		t.Fatalf("trace without meta: Meta = %+v, want zero", meta)
	}
}

// TestAuditCountsCompletedFlows: the fold counts completed flows as
// Flows groups them — each flow id once, untagged events skipped.
func TestAuditCountsCompletedFlows(t *testing.T) {
	evs := []Event{
		{T: 0, Type: EvFlowStart, Flow: "a", Size: 10},
		{T: 1, Type: EvFlowStart, Flow: "b", Size: 10},
		{T: 2, Type: EvFlowEnd, Flow: "a", FCT: 2},
		{T: 3, Type: EvFlowEnd, Flow: "a", FCT: 3},
		{T: 4, Type: EvFlowEnd},
		{T: 5, Type: EvFlowEnd, Flow: "c", FCT: 5},
	}
	want := 0
	for _, f := range fold(&Flows{}, evs).List {
		if f.End >= 0 {
			want++
		}
	}
	if got := fold(&Audit{}, evs).FlowsCompleted; got != want || got != 2 {
		t.Fatalf("audit counted %d completed flows, Flows %d, want 2", got, want)
	}
}
