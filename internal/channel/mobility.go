package channel

import (
	"math"

	"outran/internal/rng"
	"outran/internal/sim"
)

// Mobility is a random-waypoint walker inside a disc around the base
// station, matching the paper's "random mobility with an average
// walking speed of 1.4 m/s within a 200 m radius" setup. Positions are
// a pure function of time given the seed, via a precomputed leg list
// extended lazily.
type Mobility struct {
	radiusM  float64
	speedMPS float64
	r        *rng.Source
	legs     []leg
}

type leg struct {
	start  sim.Time
	end    sim.Time
	x0, y0 float64
	x1, y1 float64
}

// NewMobility places the UE uniformly in the disc and starts walking.
// speedMPS of 0 pins the UE in place.
func NewMobility(radiusM, speedMPS float64, r *rng.Source) *Mobility {
	m := &Mobility{radiusM: radiusM, speedMPS: speedMPS, r: r}
	x, y := m.randomPoint()
	if speedMPS <= 0 {
		m.legs = append(m.legs, leg{start: 0, end: math.MaxInt64, x0: x, y0: y, x1: x, y1: y})
		return m
	}
	m.appendLeg(0, x, y)
	return m
}

func (m *Mobility) randomPoint() (float64, float64) {
	// Uniform over the disc via sqrt radius.
	rad := m.radiusM * math.Sqrt(m.r.Float64())
	theta := 2 * math.Pi * m.r.Float64()
	return rad * math.Cos(theta), rad * math.Sin(theta)
}

func (m *Mobility) appendLeg(start sim.Time, x0, y0 float64) {
	x1, y1 := m.randomPoint()
	dist := math.Hypot(x1-x0, y1-y0)
	dur := sim.Time(dist / m.speedMPS * float64(sim.Second))
	if dur < sim.Millisecond {
		dur = sim.Millisecond
	}
	// Not a steady-state allocation: lazy leg extension: one leg per waypoint reached (seconds to minutes of sim time apart), none when re-sampling a time already covered
	m.legs = append(m.legs, leg{start: start, end: start + dur, x0: x0, y0: y0, x1: x1, y1: y1})
}

// Position returns the UE's (x, y) at time t.
func (m *Mobility) Position(t sim.Time) (float64, float64) {
	for {
		last := m.legs[len(m.legs)-1]
		if t <= last.end {
			break
		}
		m.appendLeg(last.end, last.x1, last.y1)
	}
	// Usually the query hits the last few legs; scan backwards.
	for i := len(m.legs) - 1; i >= 0; i-- {
		l := m.legs[i]
		if t >= l.start {
			span := float64(l.end - l.start)
			frac := 0.0
			if span > 0 {
				frac = float64(t-l.start) / span
			}
			if frac > 1 {
				frac = 1
			}
			return l.x0 + frac*(l.x1-l.x0), l.y0 + frac*(l.y1-l.y0)
		}
	}
	return m.legs[0].x0, m.legs[0].y0
}

// DistanceM returns the distance from the base station at the origin.
func (m *Mobility) DistanceM(t sim.Time) float64 {
	x, y := m.Position(t)
	return math.Hypot(x, y)
}
