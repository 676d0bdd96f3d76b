package workload

import (
	"fmt"
	"math"

	"outran/internal/sim"
)

// EnvelopeKind names a temporal arrival-rate shape.
type EnvelopeKind string

// Available envelopes.
const (
	// EnvNone is the stationary process the paper evaluates.
	EnvNone EnvelopeKind = ""
	// EnvDiurnal is a sinusoidal day/night swing: the rate starts at
	// the trough, peaks mid-period, and returns to the trough.
	EnvDiurnal EnvelopeKind = "diurnal"
	// EnvFlashCrowd is a step: baseline rate with a Gain-times burst
	// over the [At, At+Width) fraction of the span.
	EnvFlashCrowd EnvelopeKind = "flashcrowd"
	// EnvRamp ramps the rate linearly From -> To across the span.
	EnvRamp EnvelopeKind = "ramp"
)

// Envelope shapes a class's arrival rate over the run. It
// redistributes a fixed offered volume in time rather than scaling it:
// the generated flow count and byte volume stay calibrated to
// Spec.Load, and arrival instants are warped so their density follows
// the envelope. That keeps PF-vs-OutRAN comparisons load-matched
// across envelopes.
//
// Envelope is plain data (fingerprint- and checkpoint-safe); zero
// fields take scenario defaults at build time.
type Envelope struct {
	Kind EnvelopeKind

	// Period is the diurnal cycle length; 0 means one full cycle over
	// the arrival span.
	Period sim.Time
	// Depth is the diurnal swing amplitude in (0, 1]; 0 means 0.8.
	Depth float64

	// At and Width place the flash-crowd step as fractions of the
	// span; zero values mean 0.4 and 0.2.
	At, Width float64
	// Gain is the flash-crowd rate multiplier; 0 means 4.
	Gain float64

	// From and To are the ramp's endpoint rate multipliers; both zero
	// means 0.25 -> 1.75.
	From, To float64
}

// validate checks the envelope fields, naming the offending one.
func (e Envelope) validate() error {
	switch e.Kind {
	case EnvNone, EnvDiurnal, EnvFlashCrowd, EnvRamp:
	default:
		return fmt.Errorf("workload: Envelope.Kind: unknown envelope %q", e.Kind)
	}
	if e.Period < 0 {
		return fmt.Errorf("workload: Envelope.Period = %v, want >= 0", e.Period)
	}
	// Every range check is written so that NaN fails it.
	if !(e.Depth >= 0 && e.Depth <= 1) {
		return fmt.Errorf("workload: Envelope.Depth = %v, want 0..1", e.Depth)
	}
	if !(e.At >= 0 && e.At < 1) {
		return fmt.Errorf("workload: Envelope.At = %v, want 0..1", e.At)
	}
	if !(e.Width >= 0 && e.Width <= 1) {
		return fmt.Errorf("workload: Envelope.Width = %v, want 0..1", e.Width)
	}
	if !(e.Gain >= 0 && e.Gain <= maxRate) {
		return fmt.Errorf("workload: Envelope.Gain = %v, want 0..%g", e.Gain, maxRate)
	}
	if !(e.From >= 0 && e.From <= maxRate) || !(e.To >= 0 && e.To <= maxRate) {
		return fmt.Errorf("workload: Envelope.From/To = %v/%v, want 0..%g", e.From, e.To, maxRate)
	}
	return nil
}

// maxRate bounds the rate multipliers, so the warp's cumulative rate
// integral stays finite for any span.
const maxRate = 1e6

// rateFloor keeps the instantaneous rate strictly positive so the
// cumulative integral is strictly increasing and invertible.
const rateFloor = 0.05

// rate returns the relative arrival-rate multiplier at t, with
// defaults resolved against the span.
func (e Envelope) rate(t, span sim.Time) float64 {
	v := 1.0
	switch e.Kind {
	case EnvDiurnal:
		period := e.Period
		if period <= 0 {
			period = span
		}
		depth := e.Depth
		if depth == 0 {
			depth = 0.8
		}
		v = 1 + depth*math.Sin(2*math.Pi*float64(t)/float64(period)-math.Pi/2)
	case EnvFlashCrowd:
		at, width, gain := e.At, e.Width, e.Gain
		if at == 0 {
			at = 0.4
		}
		if width == 0 {
			width = 0.2
		}
		if gain == 0 {
			gain = 4
		}
		u := float64(t) / float64(span)
		if u >= at && u < at+width {
			v = gain
		}
	case EnvRamp:
		from, to := e.From, e.To
		if from == 0 && to == 0 {
			from, to = 0.25, 1.75
		}
		v = from + (to-from)*float64(t)/float64(span)
	}
	if v < rateFloor {
		v = rateFloor
	}
	return v
}

// warpSteps is the resolution of the precomputed cumulative-rate
// table. 4096 steps keep the interpolation error well under one TTI
// for any span the experiments use.
const warpSteps = 4096

// warper maps nominal (uniform-time) arrival instants onto the
// envelope: an instant t is sent to W(t) such that the density of
// warped arrivals is proportional to rate. W is the inverse CDF of the
// normalized cumulative rate integral, so it is strictly increasing,
// fixes 0 and span, and preserves arrival order — sorted schedules
// stay sorted through the warp.
type warper struct {
	span sim.Time
	cum  []float64 // cumulative rate integral at i*span/warpSteps
}

// newWarper precomputes the cumulative table; nil means identity.
func newWarper(e Envelope, span sim.Time) *warper {
	if e.Kind == EnvNone || span <= 0 {
		return nil
	}
	w := &warper{span: span, cum: make([]float64, warpSteps+1)}
	dt := float64(span) / warpSteps
	for i := 1; i <= warpSteps; i++ {
		mid := sim.Time((float64(i) - 0.5) * dt)
		w.cum[i] = w.cum[i-1] + e.rate(mid, span)*dt
	}
	return w
}

// warp maps a nominal instant in [0, span] to its envelope-shaped
// instant. The nominal fraction u = t/span selects the target mass
// u*total; binary search plus linear interpolation inverts the table.
func (w *warper) warp(t sim.Time) sim.Time {
	if w == nil {
		return t
	}
	if t <= 0 {
		return 0
	}
	if t >= w.span {
		return w.span
	}
	target := float64(t) / float64(w.span) * w.cum[warpSteps]
	lo, hi := 0, warpSteps
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	seg := w.cum[hi] - w.cum[lo]
	frac := 0.0
	if seg > 0 {
		frac = (target - w.cum[lo]) / seg
	}
	out := sim.Time((float64(lo) + frac) / warpSteps * float64(w.span))
	if out > w.span {
		out = w.span
	}
	return out
}
