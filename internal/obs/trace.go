package obs

import (
	"fmt"
	"sort"

	"outran/internal/sim"
)

// FlowTimeline is one flow's reconstructed lifecycle span.
type FlowTimeline struct {
	Flow  string
	UE    int
	Size  int64
	Start sim.Time
	// End is the transport-completion time; < 0 when the flow never
	// completed inside the trace.
	End sim.Time
	FCT sim.Time

	// FirstTx is the first PDCP SN assignment (with delayed numbering,
	// the first byte scheduled onto the air); < 0 when never scheduled.
	FirstTx sim.Time
	// FirstDeliver is the first SDU delivered to the UE; < 0 if none.
	FirstDeliver sim.Time
	// FinalLevel is the lowest MLFQ level the flow reached.
	FinalLevel int
	// Demotions lists the MLFQ transitions in order.
	Demotions []Event
	// Events holds every event tagged with this flow, in trace order.
	Events []Event
}

// Residency is the per-layer queue-residency breakdown of a completed
// flow: where its completion time was spent.
type Residency struct {
	// Ingress spans server send to first air scheduling: backhaul delay
	// plus RLC queueing behind other traffic.
	Ingress sim.Time
	// Air spans first scheduling to first delivery at the UE: HARQ and
	// RLC retransmission rounds included.
	Air sim.Time
	// Drain spans first delivery to transport completion: the
	// congestion-window-paced remainder of the flow.
	Drain sim.Time
}

// Residency computes the breakdown; ok is false when the flow did not
// complete or was never scheduled.
func (f *FlowTimeline) Residency() (Residency, bool) {
	if f.End < 0 || f.FirstTx < 0 || f.FirstDeliver < 0 {
		return Residency{}, false
	}
	return Residency{
		Ingress: f.FirstTx - f.Start,
		Air:     f.FirstDeliver - f.FirstTx,
		Drain:   f.End - f.FirstDeliver,
	}, true
}

// Timelines reconstructs the flow-lifecycle spans from a trace, in
// flow-start order. Events for flows whose start fell outside the
// trace are grouped under a span with Start < 0.
func Timelines(events []Event) []*FlowTimeline {
	byFlow := make(map[string]*FlowTimeline)
	var order []*FlowTimeline
	get := func(flow string) *FlowTimeline {
		f := byFlow[flow]
		if f == nil {
			f = &FlowTimeline{Flow: flow, Start: -1, End: -1, FirstTx: -1, FirstDeliver: -1}
			byFlow[flow] = f
			order = append(order, f)
		}
		return f
	}
	for _, ev := range events {
		if ev.Flow == "" {
			continue
		}
		f := get(ev.Flow)
		f.Events = append(f.Events, ev)
		switch ev.Type {
		case EvFlowStart:
			f.UE, f.Size, f.Start = ev.UE, ev.Size, ev.T
		case EvFlowEnd:
			f.End, f.FCT = ev.T, ev.FCT
		case EvPDCPSN:
			if f.FirstTx < 0 {
				f.FirstTx = ev.T
			}
		case EvDeliver:
			if f.FirstDeliver < 0 {
				f.FirstDeliver = ev.T
			}
		case EvMLFQ:
			f.Demotions = append(f.Demotions, ev)
			if ev.Level > f.FinalLevel {
				f.FinalLevel = ev.Level
			}
		}
	}
	return order
}

// Audit aggregates the per-TTI scheduler decision records and the
// tracker samples of one trace — the trace-derived counterpart of the
// end-of-run Stats. It is a fold: as a Sink it takes the events of a
// live run one at a time and keeps only its sums, so auditing a run
// costs no memory per event; Close finishes the means.
type Audit struct {
	Meta Event // the trace's meta event (zero when absent)

	TTIs       int
	AllocRBs   int64 // RB allocations across all TTIs
	UsedRBs    int64 // RB-TTIs that actually carried data
	ServedBits int64

	// Decisions is the number of per-RB decision records; Overrides
	// counts those where ε-relaxation picked a user other than the
	// legacy best.
	Decisions int64
	Overrides int64
	// SacrificeSum accumulates the relative metric sacrifice
	// (best_m - sel_m)/best_m of every override; SacrificeMean spreads
	// it over all decision records — the paper's §5.4 per-decision
	// spectral-efficiency cost, measured instead of inferred.
	SacrificeSum  float64
	SacrificeMean float64
	// OverridesByLevel counts overrides by the winning user's MLFQ
	// level (index clamped to 8 levels).
	OverridesByLevel [8]int64
	// CandMean is the mean ε-candidate-set size over decision records.
	CandMean float64

	// MeanSE and MeanFairness replay the EvSESample stream under the
	// trace's reset/freeze bracketing, reproducing the run's
	// CellTracker aggregates from the trace alone.
	MeanSE       float64
	MeanFairness float64
	MeanActiveSE float64
	Samples      int

	// FlowsCompleted counts the flows with an EvFlowEnd, each flow id
	// once, as Timelines groups them.
	FlowsCompleted int

	// The fold's running state: sums in event order, so the means have
	// the bits of a mean over the kept samples.
	candSum                   int64
	seSum, fairSum, activeSum float64
	activeN                   int
	frozen                    bool
	ended                     map[string]struct{}
}

// ComputeAudit replays a trace's scheduler records. The EvSESample
// replay honors EvTrackerReset/EvTrackerFreeze so warmup cuts and
// measurement-window freezes reproduce exactly.
func ComputeAudit(events []Event) Audit {
	var a Audit
	for i := range events {
		a.Emit(&events[i])
	}
	a.Close()
	return a
}

// Emit implements Sink: it folds one event into the audit.
func (a *Audit) Emit(ev *Event) {
	switch ev.Type {
	case EvMeta:
		a.Meta = *ev
	case EvTTI:
		a.TTIs++
		a.AllocRBs += int64(ev.AllocRBs)
		a.UsedRBs += int64(ev.UsedRBs)
		a.ServedBits += int64(ev.ServedBits)
	case EvDecision:
		a.Decisions++
		a.candSum += int64(ev.Cands)
		if ev.Sel != ev.Best {
			a.Overrides++
			if ev.BestM > 0 {
				a.SacrificeSum += (ev.BestM - ev.SelM) / ev.BestM
			}
			lv := ev.Level
			if lv >= len(a.OverridesByLevel) {
				lv = len(a.OverridesByLevel) - 1
			}
			if lv >= 0 {
				a.OverridesByLevel[lv]++
			}
		}
	case EvTrackerReset:
		a.seSum, a.fairSum, a.activeSum = 0, 0, 0
		a.Samples, a.activeN = 0, 0
		a.frozen = false
	case EvTrackerFreeze:
		a.frozen = true
	case EvSESample:
		if a.frozen {
			return
		}
		a.seSum += ev.SE
		a.fairSum += ev.Fairness
		a.Samples++
		if ev.ActiveSE >= 0 {
			a.activeSum += ev.ActiveSE
			a.activeN++
		}
	case EvFlowEnd:
		if ev.Flow == "" {
			return
		}
		if a.ended == nil {
			a.ended = make(map[string]struct{})
		}
		if _, ok := a.ended[ev.Flow]; !ok {
			a.ended[ev.Flow] = struct{}{}
			a.FlowsCompleted++
		}
	}
}

// Close implements Sink: it finishes the means over what was folded.
// It may be called again after more events.
func (a *Audit) Close() error {
	if a.Decisions > 0 {
		a.SacrificeMean = a.SacrificeSum / float64(a.Decisions)
		a.CandMean = float64(a.candSum) / float64(a.Decisions)
	}
	a.MeanSE = mean(a.seSum, a.Samples)
	a.MeanFairness = mean(a.fairSum, a.Samples)
	a.MeanActiveSE = mean(a.activeSum, a.activeN)
	return nil
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// SlowestFlows returns the n completed flows with the largest FCT,
// slowest first, ties broken by flow id for determinism. n < 0 counts
// as 0.
func SlowestFlows(timelines []*FlowTimeline, n int) []*FlowTimeline {
	done := make([]*FlowTimeline, 0, len(timelines))
	for _, f := range timelines {
		if f.End >= 0 {
			done = append(done, f)
		}
	}
	sort.Slice(done, func(i, j int) bool {
		if done[i].FCT != done[j].FCT {
			return done[i].FCT > done[j].FCT
		}
		return done[i].Flow < done[j].Flow
	})
	return done[:max(0, min(n, len(done)))]
}

// CountByType tallies a trace's events per type, returned as sorted
// (type, count) pairs.
func CountByType(events []Event) []struct {
	Type  string
	Count int
} {
	m := make(map[string]int)
	for i := range events {
		m[events[i].Type]++
	}
	keys := make([]string, 0, len(m))
	// Order-free: keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		Type  string
		Count int
	}, len(keys))
	for i, k := range keys {
		out[i].Type, out[i].Count = k, m[k]
	}
	return out
}

// FindMeta returns the trace's meta event, or an error when missing.
func FindMeta(events []Event) (Event, error) {
	for i := range events {
		if events[i].Type == EvMeta {
			return events[i], nil
		}
	}
	return Event{}, fmt.Errorf("obs: trace has no meta event")
}
