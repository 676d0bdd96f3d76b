package fault

import (
	"outran/internal/ran"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
)

// defaultRLFThreshold is how many AM delivery failures (PDUs abandoned
// past maxRetx) a UE accumulates before the injector declares a
// radio-link failure and re-establishes it — the natural RLF path, as
// opposed to a ForceRLF plan event.
const defaultRLFThreshold = 4

// InjectorStats counts what the injector actually did — useful both
// for reports and for the determinism gates (same seed, same counts).
type InjectorStats struct {
	CQIDropped      uint64
	HARQFlipped     uint64
	PDUsDropped     uint64
	BackhaulDropped uint64
	RLFs            uint64 // natural (threshold) radio-link failures
	ForcedRLFs      uint64 // plan-scheduled ForceRLF events
}

// Injector owns the mutable fault state: which plan events are active
// right now, folded into per-UE accumulators the hooks read. All
// mutation happens on the event loop, in apply and revert events the
// injector schedules and handles itself, so hook reads never race and
// runs reproduce exactly.
type Injector struct {
	cell *ran.Cell
	r    *rng.Source

	// rlfThreshold overrides defaultRLFThreshold when > 0.
	rlfThreshold int

	// plan is the schedule the pending apply/revert events index into.
	plan Plan

	fadeDB    []float64 // per-UE sum of active fade magnitudes (dB)
	cqiBlack  []int     // per-UE count of active CQI blackouts
	harqProb  []float64 // per-UE sum of active flip probabilities
	pduProb   []float64 // per-UE sum of active drop probabilities
	bhExtraMs float64   // sum of active backhaul delay magnitudes (ms)
	bhOutage  int       // count of active backhaul outages

	failStreak []int  // per-UE AM delivery failures since last RLF
	rlfPending []bool // re-establishment scheduled but not yet run

	stats InjectorStats
}

// NewInjector builds an injector for the cell, drawing probabilistic
// decisions (flip/drop coin tosses, backhaul jitter) from its own
// stream seeded with seed.
func NewInjector(cell *ran.Cell, seed uint64) *Injector {
	n := cell.Config().NumUEs
	return &Injector{
		cell:       cell,
		r:          rng.New(seed),
		fadeDB:     make([]float64, n),
		cqiBlack:   make([]int, n),
		harqProb:   make([]float64, n),
		pduProb:    make([]float64, n),
		failStreak: make([]int, n),
		rlfPending: make([]bool, n),
	}
}

// Stats returns what the injector has done so far.
func (in *Injector) Stats() InjectorStats { return in.stats }

// The injector's event kinds (sim.Event.Kind). Idx is the plan index
// of an apply or revert, the UE of a re-establishment.
const (
	evApply uint8 = iota + 1
	evRevert
	evReestablish
)

// Schedule installs the plan's apply/revert transitions on the cell's
// engine, with the injector as their handler. Call before the first
// Run.
func (in *Injector) Schedule(plan Plan) {
	in.plan = plan
	for i, ev := range plan {
		in.cell.Eng.Schedule(ev.Start, in, sim.Event{Kind: evApply, Idx: int32(i)})
		if ev.Kind != ForceRLF {
			in.cell.Eng.Schedule(ev.End(), in, sim.Event{Kind: evRevert, Idx: int32(i)})
		}
	}
}

// Fire runs a pending transition or re-establishment.
func (in *Injector) Fire(ev sim.Event) {
	switch ev.Kind {
	case evApply:
		in.apply(in.plan[ev.Idx])
	case evRevert:
		in.revert(in.plan[ev.Idx])
	case evReestablish:
		in.reestablish(int(ev.Idx))
	}
}

func (in *Injector) apply(ev Event) {
	switch ev.Kind {
	case DeepFade, Outage:
		in.fadeDB[ev.UE] += ev.Magnitude
	case CQIBlackout:
		in.cqiBlack[ev.UE]++
	case HARQCorrupt:
		in.harqProb[ev.UE] += ev.Magnitude
	case PDULoss:
		in.pduProb[ev.UE] += ev.Magnitude
	case BackhaulDegrade:
		in.bhExtraMs += ev.Magnitude
	case BackhaulOutage:
		in.bhOutage++
	case ForceRLF:
		in.stats.ForcedRLFs++
		in.triggerRLF(ev.UE)
	}
}

func (in *Injector) revert(ev Event) {
	switch ev.Kind {
	case DeepFade, Outage:
		in.fadeDB[ev.UE] -= ev.Magnitude
	case CQIBlackout:
		in.cqiBlack[ev.UE]--
	case HARQCorrupt:
		in.harqProb[ev.UE] -= ev.Magnitude
	case PDULoss:
		in.pduProb[ev.UE] -= ev.Magnitude
	case BackhaulDegrade:
		in.bhExtraMs -= ev.Magnitude
	case BackhaulOutage:
		in.bhOutage--
	}
}

// triggerRLF schedules a deferred re-establishment (ReestablishUE must
// not run inside an RLC pull path; see its doc). The rlfPending guard
// keeps at most one pending per UE.
func (in *Injector) triggerRLF(ue int) {
	if in.rlfPending[ue] {
		return
	}
	in.rlfPending[ue] = true
	in.cell.Eng.Schedule(in.cell.Eng.Now(), in, sim.Event{Kind: evReestablish, Idx: int32(ue)})
}

func (in *Injector) reestablish(ue int) {
	in.rlfPending[ue] = false
	in.failStreak[ue] = 0
	if err := in.cell.ReestablishUE(ue); err != nil {
		panic(err) // ue index is always valid here
	}
}

// onDeliveryFail is the natural-RLF trigger: enough abandoned AM PDUs
// in a row and the UE's radio link is declared failed.
func (in *Injector) onDeliveryFail(ue int, _ uint32) {
	if in.rlfPending[ue] {
		return
	}
	in.failStreak[ue]++
	th := in.rlfThreshold
	if th <= 0 {
		th = defaultRLFThreshold
	}
	if in.failStreak[ue] >= th {
		in.stats.RLFs++
		in.triggerRLF(ue)
	}
}

// hooks returns the injector's side of the ran.FaultHooks contract.
func (in *Injector) hooks() ran.FaultHooks {
	return ran.FaultHooks{
		SINROffsetDB: func(ue int, _ sim.Time) float64 {
			return -in.fadeDB[ue]
		},
		DropCQIReport: func(ue int, _ sim.Time) bool {
			if in.cqiBlack[ue] > 0 {
				in.stats.CQIDropped++
				return true
			}
			return false
		},
		CorruptHARQFeedback: func(ue int, _ sim.Time, ok bool) bool {
			if p := min(in.harqProb[ue], 1); p > 0 && in.r.Float64() < p {
				in.stats.HARQFlipped++
				return !ok
			}
			return ok
		},
		DropRLCPDU: func(ue int, _ sim.Time, _ *rlc.PDU) bool {
			if p := min(in.pduProb[ue], 1); p > 0 && in.r.Float64() < p {
				in.stats.PDUsDropped++
				return true
			}
			return false
		},
		Backhaul: func(_ sim.Time) (sim.Time, bool) {
			if in.bhOutage > 0 {
				in.stats.BackhaulDropped++
				return 0, true
			}
			if in.bhExtraMs > 0 {
				// Jitter in [0.5, 1.5) of the nominal extra delay.
				j := 0.5 + in.r.Float64()
				return sim.Time(in.bhExtraMs * j * float64(sim.Millisecond)), false
			}
			return 0, false
		},
		OnDeliveryFail: in.onDeliveryFail,
	}
}

// Attach schedules the plan's transitions on the injector and installs
// its hooks on the cell. Call once, before the first Run.
func Attach(cell *ran.Cell, plan Plan, inj *Injector) {
	inj.Schedule(plan)
	cell.SetFaultHooks(inj.hooks())
}
