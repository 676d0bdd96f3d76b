package fault

import (
	"outran/internal/ran"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
)

// DefaultRLFThreshold is how many AM delivery failures (PDUs abandoned
// past maxRetx) a UE accumulates before the injector declares a
// radio-link failure and re-establishes it — the natural RLF path, as
// opposed to a ForceRLF plan event.
const DefaultRLFThreshold = 4

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
// mutation happens on the event loop via scheduled apply/revert
// events, so hook reads never race and runs reproduce exactly.
type Injector struct {
	cell *ran.Cell
	r    *rng.Source

	// RLFThreshold overrides DefaultRLFThreshold when > 0.
	RLFThreshold int

	// plan is the schedule the pending apply/revert events index into
	// by key, in this run or in one restored from a checkpoint.
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

// External-event key space: plan transitions are keyed by
// (plan index << 1 | phase) and deferred RLF re-establishments by
// (rlfKeyBit | ue). The cell hands the key back through FireExternal
// when the event fires, also after a checkpoint restore.
const (
	phaseApply  = 0
	phaseRevert = 1
	rlfKeyBit   = uint64(1) << 63
)

// Schedule installs the plan's apply/revert transitions on the cell's
// engine, with the injector as the cell's external-event handler. Call
// before the first Run.
func (in *Injector) Schedule(plan Plan) {
	in.PrepareResume(plan)
	for i, ev := range plan {
		in.cell.ScheduleExternal(ev.Start, uint64(i)<<1|phaseApply)
		if ev.Kind != ForceRLF {
			in.cell.ScheduleExternal(ev.End(), uint64(i)<<1|phaseRevert)
		}
	}
}

// PrepareResume installs the plan and attaches the injector as the
// cell's external-event handler WITHOUT scheduling anything — the
// restore path, where the pending transitions come back from the
// snapshot. The plan must be the original run's (re-derive it from the
// same seed).
func (in *Injector) PrepareResume(plan Plan) {
	in.plan = plan
	in.cell.SetExternalHandler(in)
}

// HasExternal reports whether key is inside the injector's key space.
func (in *Injector) HasExternal(key uint64) bool {
	if key&rlfKeyBit != 0 {
		return key&^rlfKeyBit < uint64(len(in.rlfPending))
	}
	return key>>1 < uint64(len(in.plan))
}

// FireExternal runs the pending transition or re-establishment that
// was scheduled under key.
func (in *Injector) FireExternal(key uint64) {
	switch {
	case key&rlfKeyBit != 0:
		in.reestablish(int(key &^ rlfKeyBit))
	case key&1 == phaseRevert:
		in.revert(in.plan[key>>1])
	default:
		in.apply(in.plan[key>>1])
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
// keeps the per-UE key unique among pending events.
func (in *Injector) triggerRLF(ue int) {
	if in.rlfPending[ue] {
		return
	}
	in.rlfPending[ue] = true
	in.cell.ScheduleExternal(in.cell.Eng.Now(), rlfKeyBit|uint64(ue))
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
	th := in.RLFThreshold
	if th <= 0 {
		th = DefaultRLFThreshold
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
