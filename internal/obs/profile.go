package obs

import "time"

// Phase identifies one slice of a TTI's wall-clock cost.
type Phase int

// Sub-TTI phases, in stack order.
const (
	PhasePhy  Phase = iota // CQI measurement + reporting
	PhaseMac               // buffer status collection + scheduler Allocate
	PhaseRlc               // PDU build/serve + HARQ transmit
	PhasePdcp              // SDU submission and delivery
	PhaseObs               // tracker folds + trace emission
	NumPhases
)

var phaseNames = [NumPhases]string{"phy", "mac", "rlc", "pdcp", "obs"}

// Name returns the phase's short name.
func (p Phase) Name() string { return phaseNames[p] }

// PhaseProfiler attributes wall nanoseconds per TTI to the simulator's
// sub-TTI phases. A nil *PhaseProfiler is fully inert: Begin returns
// the zero time and End returns without reading the clock, so the
// disabled cost on the //outran:allocfree hot path is one pointer
// check per site and zero allocations either way. Profiler results
// are wall-clock and therefore nondeterministic — they live only in
// the run summary's phases section, never in the Registry or any
// byte-compared stream.
type PhaseProfiler struct {
	ns   [NumPhases]int64
	ttis int64
}

// NewPhaseProfiler returns an enabled profiler.
func NewPhaseProfiler() *PhaseProfiler { return &PhaseProfiler{} }

// Begin opens a phase measurement. Nil receiver: zero time, no clock
// read.
func (p *PhaseProfiler) Begin() time.Time {
	if p == nil {
		return time.Time{}
	}
	// Wall clock: phase profiling measures wall cost; results never enter simulated state
	return time.Now()
}

// End closes a phase measurement opened by Begin.
func (p *PhaseProfiler) End(ph Phase, start time.Time) {
	if p == nil {
		return
	}
	// Wall clock: phase profiling measures wall cost; results never enter simulated state
	p.ns[ph] += time.Since(start).Nanoseconds()
}

// OnTTI counts one completed TTI; per-TTI attribution divides by it.
func (p *PhaseProfiler) OnTTI() {
	if p == nil {
		return
	}
	p.ttis++
}

// TTIs returns the number of counted TTIs.
func (p *PhaseProfiler) TTIs() int64 {
	if p == nil {
		return 0
	}
	return p.ttis
}

// NsPerTTI returns mean wall nanoseconds per TTI for each phase, nil
// when disabled or before the first TTI.
func (p *PhaseProfiler) NsPerTTI() map[string]float64 {
	if p == nil || p.ttis == 0 {
		return nil
	}
	out := make(map[string]float64, NumPhases)
	for ph := Phase(0); ph < NumPhases; ph++ {
		out[ph.Name()] = float64(p.ns[ph]) / float64(p.ttis)
	}
	return out
}
