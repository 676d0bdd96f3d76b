// Package channel models the time- and frequency-varying wireless
// channel each UE experiences: log-distance path loss with shadowing,
// Jakes (sum-of-sinusoids) Rayleigh fading with Doppler from the UE's
// speed, per-subband frequency-selective offsets, and random-waypoint
// pedestrian mobility. It substitutes for the 3GPP 36.141 fading
// traces and the NS-3/Colosseum channel emulation used in the paper.
package channel

import (
	"math"

	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

const speedOfLight = 299792458.0

// jakes is a deterministic Rayleigh fading process realised as a sum
// of sinusoids (Jakes' model). The complex gain at time t is a pure
// function of t, so the process needs no per-tick state updates and
// can be sampled at arbitrary simulation times. It is a value type
// with inline arrays so a Model holds all its oscillators in one
// allocation.
type jakes struct {
	static bool // zero Doppler: the gain is the constant staticDB
	// staticDB is the mild static multipath offset in [-3, +3] dB of a
	// static oscillator; a moving one leaves it zero.
	staticDB float64
	// omega[n] = 2π·f_d·cos(arrival angle n), the oscillator's angular
	// Doppler frequency, set only when moving. It is stored as that
	// left-to-right product so omega[n]*ts is the double the unhoisted
	// expression produces.
	omega   [numOscillators]float64
	phasesI [numOscillators]float64
	phasesQ [numOscillators]float64
}

const numOscillators = 8

// newJakes draws three values per oscillator in the same order in
// either mode, so the rng stream does not depend on the Doppler, but
// evaluates only the cosines gainDB reads: the Doppler terms when
// moving, the phase sum when static.
func newJakes(dopplerHz float64, r *rng.Source) jakes {
	j := jakes{static: dopplerHz <= 0}
	for n := 0; n < numOscillators; n++ {
		j.phasesI[n] = 2 * math.Pi * r.Float64()
		j.phasesQ[n] = 2 * math.Pi * r.Float64()
		// Random arrival angles give a smoother Doppler spectrum
		// than the classic deterministic spacing.
		angle := 2 * math.Pi * r.Float64()
		if !j.static {
			j.omega[n] = 2 * math.Pi * dopplerHz * cos(angle)
		}
	}
	if j.static {
		// Static channel: fixed draw baked into the phases.
		sum := 0.0
		for n := 0; n < numOscillators; n++ {
			sum += cos(j.phasesI[n]) + cos(j.phasesQ[n])
		}
		j.staticDB = 3 * math.Tanh(sum/4)
	}
	return j
}

// gainDB returns the instantaneous fading gain in dB (0 dB average
// power) at ts seconds.
//
//outran:allocfree
func (j *jakes) gainDB(ts float64) float64 {
	if j.static {
		return j.staticDB
	}
	var i, q float64
	// The vector kernel returns the sixteen terms, cosines then sines,
	// and declines a call it cannot reduce; summing them here in
	// oscillator order gives the sums the scalar loop's bits.
	var cs [2 * numOscillators]float64
	if useAVX2 && trigJakesAVX2(ts, j, &cs) {
		for n := 0; n < numOscillators; n++ {
			i += cs[n]
			q += cs[numOscillators+n]
		}
	} else {
		for n := 0; n < numOscillators; n++ {
			w := j.omega[n] * ts
			i += cos(w + j.phasesI[n])
			q += sin(w + j.phasesQ[n])
		}
	}
	norm := float64(numOscillators)
	p := (i*i + q*q) / norm // unit mean power
	if p < 1e-6 {
		p = 1e-6
	}
	return 10 * math.Log10(p)
}

// Model is the downlink channel of one UE. Zero value is not usable;
// construct with New.
type Model struct {
	meanSINRdB float64
	baseDB     float64 // meanSINRdB plus the shadowing draw
	subbands   []jakes
	wideband   jakes
	mob        *Mobility
	pathLoss   bool // mob != nil && plExponent > 0
	plExponent float64
	refDistM   float64
}

// Config parameterises a UE channel.
type Config struct {
	MeanSINRdB   float64 // long-term average SINR at the reference distance
	SpeedMPS     float64 // UE speed (Doppler); 0 for static
	CarrierHz    float64 // downlink carrier frequency
	NumSubbands  int     // frequency-selective granularity (>=1)
	Mobility     *Mobility
	PathLossExp  float64 // 0 disables distance-driven SINR drift
	ShadowingStd float64 // lognormal shadowing std dev in dB
}

// New builds a channel model using r for all random draws.
func New(cfg Config, r *rng.Source) *Model {
	if cfg.NumSubbands < 1 {
		cfg.NumSubbands = 1
	}
	doppler := cfg.SpeedMPS / speedOfLight * cfg.CarrierHz
	m := &Model{
		meanSINRdB: cfg.MeanSINRdB,
		mob:        cfg.Mobility,
		pathLoss:   cfg.Mobility != nil && cfg.PathLossExp > 0,
		plExponent: cfg.PathLossExp,
		refDistM:   100,
		wideband:   newJakes(doppler, r),
	}
	shadowingDB := 0.0
	if cfg.ShadowingStd > 0 {
		shadowingDB = r.Normal(0, cfg.ShadowingStd)
	}
	m.baseDB = cfg.MeanSINRdB + shadowingDB
	m.subbands = make([]jakes, cfg.NumSubbands)
	for i := range m.subbands {
		m.subbands[i] = newJakes(doppler, r)
	}
	return m
}

// instant holds the terms of a UE's SINR at one time that are the same
// on every subband, so a batch evaluates them once.
type instant struct {
	ts float64 // the time in seconds
	wb float64 // wideband fading gain, dB
	lg float64 // log10(distance / reference distance); 0 unless pathLoss
}

func (m *Model) at(t sim.Time) instant {
	in := instant{ts: t.Seconds()}
	in.wb = m.wideband.gainDB(in.ts)
	if m.pathLoss {
		d := m.mob.DistanceM(t)
		if d < 1 {
			d = 1
		}
		in.lg = math.Log10(d / m.refDistM)
	}
	return in
}

// sinr is the one SINR formula; SINRdB, SubbandSINRs and MeanSINROver
// all evaluate it. instant carries values, never partial products:
// the two expressions below keep the shape they had when every term
// was computed in place, so a target that fuses multiply-adds fuses
// the same ones and every result keeps its bit pattern.
func (m *Model) sinr(in instant, subband int) float64 {
	if subband < 0 {
		subband = 0
	}
	sb := &m.subbands[subband%len(m.subbands)]
	s := m.baseDB
	// Wideband fading dominates; subband fading adds frequency
	// selectivity around it.
	s += 0.7*in.wb + 0.3*sb.gainDB(in.ts)
	if m.pathLoss {
		s -= 10 * m.plExponent * in.lg
	}
	return s
}

// SINRdB returns the instantaneous SINR (dB) on the given subband.
func (m *Model) SINRdB(t sim.Time, subband int) float64 {
	return m.sinr(m.at(t), subband)
}

// SubbandSINRs writes the instantaneous SINR (dB) of every subband
// into dst, which must hold NumSubbands values, and returns
// dst[:NumSubbands()]. The per-UE terms are evaluated once for the
// whole batch.
//
//outran:allocfree
func (m *Model) SubbandSINRs(t sim.Time, dst []float64) []float64 {
	dst = dst[:len(m.subbands)]
	in := m.at(t)
	for sb := range dst {
		dst[sb] = m.sinr(in, sb)
	}
	return dst
}

// MeanSINROver returns the instantaneous SINR (dB) averaged over the
// listed subbands — all subbands when the list is empty — summing in
// list order.
//
//outran:allocfree
func (m *Model) MeanSINROver(t sim.Time, sbs []int) float64 {
	in := m.at(t)
	s := 0.0
	if len(sbs) == 0 {
		n := len(m.subbands)
		for sb := 0; sb < n; sb++ {
			s += m.sinr(in, sb)
		}
		return s / float64(n)
	}
	for _, sb := range sbs {
		s += m.sinr(in, sb)
	}
	return s / float64(len(sbs))
}

// CQI returns the CQI the UE would report for the subband at time t.
func (m *Model) CQI(t sim.Time, subband int) phy.CQI {
	return phy.CQIFromSINR(m.SINRdB(t, subband))
}

// NumSubbands returns the frequency-selective granularity.
func (m *Model) NumSubbands() int { return len(m.subbands) }

// MeanSINRdB returns the configured long-term average SINR.
func (m *Model) MeanSINRdB() float64 { return m.meanSINRdB }
