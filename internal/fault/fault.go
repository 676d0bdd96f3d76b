// Package fault is the deterministic chaos layer of the simulator: a
// seed-driven fault-injection framework. A Plan is a reproducible
// schedule of fault events (deep fades, CQI blackouts, HARQ feedback
// corruption, RLC PDU loss, backhaul degradation, forced radio-link
// failures); an Injector translates the active events into
// ran.FaultHooks perturbations; RunConfig runs a cell with both and
// with the cell's own invariant checker (ran.Cell.InstallChecker)
// installed. Everything draws from its own rng.Source and runs on the
// single-threaded event loop, so a chaos run with the same seed
// reproduces bit-for-bit — the property the determinism gates check.
package fault

import (
	"fmt"
	"sort"

	"outran/internal/rng"
	"outran/internal/sim"
)

// Kind names a fault class.
type Kind int

// Fault kinds, ordered as tie-breaker in the plan sort.
const (
	// DeepFade subtracts Magnitude dB from one UE's SINR — a fading
	// dip below what the channel model produces on its own.
	DeepFade Kind = iota
	// Outage is a fade deep enough (>= 40 dB) that nothing decodes.
	Outage
	// CQIBlackout drops every CQI report from one UE, so the MAC link-
	// adapts on a stale channel estimate.
	CQIBlackout
	// HARQCorrupt flips each HARQ ACK/NACK with probability Magnitude.
	HARQCorrupt
	// PDULoss drops each delivered RLC PDU with probability Magnitude
	// (burst interference below HARQ granularity).
	PDULoss
	// BackhaulDegrade adds Magnitude ms of jittered one-way delay to
	// every downlink packet on the CN path (cell-wide, UE = -1).
	BackhaulDegrade
	// BackhaulOutage drops every downlink packet on the CN path for
	// the duration (cell-wide, UE = -1).
	BackhaulOutage
	// ForceRLF triggers an immediate radio-link failure and RRC
	// re-establishment for one UE (Duration and Magnitude unused).
	ForceRLF

	numKinds
)

func (k Kind) String() string {
	switch k {
	case DeepFade:
		return "deep-fade"
	case Outage:
		return "outage"
	case CQIBlackout:
		return "cqi-blackout"
	case HARQCorrupt:
		return "harq-corrupt"
	case PDULoss:
		return "pdu-loss"
	case BackhaulDegrade:
		return "backhaul-degrade"
	case BackhaulOutage:
		return "backhaul-outage"
	case ForceRLF:
		return "force-rlf"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault: Kind hits UE (or the whole cell when
// UE is -1) from Start for Duration, with a kind-specific Magnitude.
type Event struct {
	Kind      Kind
	UE        int // -1 for cell-wide (backhaul) faults
	Start     sim.Time
	Duration  sim.Time
	Magnitude float64
}

// End returns the instant the fault reverts.
func (e Event) End() sim.Time { return e.Start + e.Duration }

func (e Event) String() string {
	return fmt.Sprintf("%v ue=%d @%v +%v mag=%.2f", e.Kind, e.UE, e.Start, e.Duration, e.Magnitude)
}

// Plan is a deterministic fault schedule, sorted by (Start, Kind, UE,
// Duration) so the apply/revert event insertion order — and therefore
// the engine's FIFO tie-break — is identical across same-seed runs.
type Plan []Event

// PlanConfig parameterises plan generation.
type PlanConfig struct {
	NumUEs  int
	Horizon sim.Time // faults start within [0, Horizon)
	// Intensity scales every fault class's arrival rate; 1.0 is the
	// nominal chaos level, 0 yields an empty plan.
	Intensity float64
}

// kindRate is the nominal per-second arrival rate of each fault class
// at Intensity 1 (per cell; per-UE faults pick a uniform victim).
var kindRates = [numKinds]float64{
	DeepFade:        2.0,
	Outage:          1.0,
	CQIBlackout:     1.0,
	HARQCorrupt:     1.0,
	PDULoss:         1.0,
	BackhaulDegrade: 0.5,
	BackhaulOutage:  0.3,
	ForceRLF:        0.2,
}

// NewPlan draws a randomized fault schedule from the seed. Identical
// (seed, cfg) pairs yield identical plans on every platform.
func NewPlan(seed uint64, cfg PlanConfig) Plan {
	if cfg.NumUEs <= 0 || cfg.Horizon <= 0 || cfg.Intensity <= 0 {
		return nil
	}
	r := rng.New(seed)
	var plan Plan
	secs := cfg.Horizon.Seconds()
	for k := Kind(0); k < numKinds; k++ {
		n := r.Poisson(kindRates[k] * cfg.Intensity * secs)
		for i := 0; i < n; i++ {
			ev := Event{
				Kind:  k,
				UE:    r.Intn(cfg.NumUEs),
				Start: sim.Time(r.Float64() * float64(cfg.Horizon)),
			}
			switch k {
			case DeepFade:
				ev.Duration = uniformDur(r, 20, 100)
				ev.Magnitude = 8 + 12*r.Float64() // 8–20 dB
			case Outage:
				ev.Duration = uniformDur(r, 50, 300)
				ev.Magnitude = 40 + 20*r.Float64() // 40–60 dB
			case CQIBlackout:
				ev.Duration = uniformDur(r, 50, 200)
				ev.Magnitude = 1
			case HARQCorrupt:
				ev.Duration = uniformDur(r, 50, 200)
				ev.Magnitude = 0.1 + 0.4*r.Float64() // flip prob 0.1–0.5
			case PDULoss:
				ev.Duration = uniformDur(r, 50, 200)
				ev.Magnitude = 0.05 + 0.25*r.Float64() // drop prob
			case BackhaulDegrade:
				ev.UE = -1
				ev.Duration = uniformDur(r, 100, 500)
				ev.Magnitude = 5 + 25*r.Float64() // extra ms, jittered
			case BackhaulOutage:
				ev.UE = -1
				ev.Duration = uniformDur(r, 30, 150)
				ev.Magnitude = 1
			case ForceRLF:
				ev.Duration = 0
				ev.Magnitude = 0
			}
			plan = append(plan, ev)
		}
	}
	sort.Slice(plan, func(i, j int) bool {
		a, b := plan[i], plan[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.UE != b.UE {
			return a.UE < b.UE
		}
		return a.Duration < b.Duration
	})
	return plan
}

func uniformDur(r *rng.Source, loMs, hiMs float64) sim.Time {
	ms := loMs + (hiMs-loMs)*r.Float64()
	return sim.Time(ms * float64(sim.Millisecond))
}
