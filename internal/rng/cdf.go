package rng

import (
	"fmt"
	"math"
	"sort"
)

// CDFPoint is one knot of an empirical cumulative distribution.
type CDFPoint struct {
	Value float64 // sample value (e.g. flow size in bytes)
	Prob  float64 // P(X <= Value), non-decreasing, last must be 1
}

// EmpiricalCDF is an empirical distribution interpolated log-linearly
// in value between knots, matching how measurement-paper CDFs (flow
// sizes spanning five decades) are usually digitised.
type EmpiricalCDF struct {
	points []CDFPoint
	// logs[i] is math.Log(points[i].Value): every interpolation reads
	// two knot logarithms, so they are taken once here.
	logs []float64
	mean float64
}

// NewEmpiricalCDF validates the knots and precomputes the knot
// logarithms and the mean. Knots must have finite, strictly increasing
// positive values and finite, non-decreasing probabilities ending at 1.
func NewEmpiricalCDF(points []CDFPoint) (*EmpiricalCDF, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("rng: CDF needs at least 2 points, got %d", len(points))
	}
	for i, p := range points {
		if !finite(p.Value) || !finite(p.Prob) {
			return nil, fmt.Errorf("rng: CDF point %d (value %g, probability %g) is not finite", i, p.Value, p.Prob)
		}
		if p.Value <= 0 {
			return nil, fmt.Errorf("rng: CDF point %d has non-positive value %g", i, p.Value)
		}
		if p.Prob < 0 || p.Prob > 1 {
			return nil, fmt.Errorf("rng: CDF point %d has probability %g outside [0,1]", i, p.Prob)
		}
		if i > 0 {
			if p.Value <= points[i-1].Value {
				return nil, fmt.Errorf("rng: CDF values not strictly increasing at point %d", i)
			}
			if p.Prob < points[i-1].Prob {
				return nil, fmt.Errorf("rng: CDF probabilities decreasing at point %d", i)
			}
		}
	}
	if points[len(points)-1].Prob != 1 {
		return nil, fmt.Errorf("rng: CDF must end at probability 1, got %g", points[len(points)-1].Prob)
	}
	c := &EmpiricalCDF{
		points: append([]CDFPoint(nil), points...),
		logs:   make([]float64, len(points)),
	}
	for i, p := range points {
		c.logs[i] = math.Log(p.Value)
	}
	c.mean = c.computeMean()
	return c, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// MustCDF is NewEmpiricalCDF that panics on error, for package-level
// distribution tables.
func MustCDF(points []CDFPoint) *EmpiricalCDF {
	c, err := NewEmpiricalCDF(points)
	if err != nil {
		panic(err)
	}
	return c
}

// quantile returns the value at cumulative probability u in [0,1].
func (c *EmpiricalCDF) quantile(u float64) float64 {
	pts := c.points
	if u <= pts[0].Prob {
		return pts[0].Value
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	if i >= len(pts) {
		return pts[len(pts)-1].Value
	}
	lo, hi := pts[i-1], pts[i]
	if hi.Prob == lo.Prob {
		return hi.Value
	}
	frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
	return math.Exp(c.logs[i-1] + frac*(c.logs[i]-c.logs[i-1]))
}

// Sample draws one variate.
func (c *EmpiricalCDF) Sample(r *Source) float64 {
	return c.quantile(r.Float64())
}

// Quantile exposes the inverse CDF (useful for tests and for the MLFQ
// threshold optimizer).
func (c *EmpiricalCDF) Quantile(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return c.quantile(u)
}

// Prob returns P(X <= v), the forward CDF, log-linearly interpolated;
// NaN for NaN.
func (c *EmpiricalCDF) Prob(v float64) float64 {
	if math.IsNaN(v) {
		return math.NaN()
	}
	pts := c.points
	if v <= pts[0].Value {
		return pts[0].Prob
	}
	if v >= pts[len(pts)-1].Value {
		return 1
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Value >= v })
	lo, hi := pts[i-1], pts[i]
	frac := (math.Log(v) - c.logs[i-1]) / (c.logs[i] - c.logs[i-1])
	return lo.Prob + frac*(hi.Prob-lo.Prob)
}

// Mean returns the distribution mean, computed by numerically
// integrating the quantile function.
func (c *EmpiricalCDF) Mean() float64 { return c.mean }

func (c *EmpiricalCDF) computeMean() float64 {
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		sum += c.quantile(u)
	}
	return sum / n
}

// Min and Max return the support bounds.
func (c *EmpiricalCDF) Min() float64 { return c.points[0].Value }
func (c *EmpiricalCDF) Max() float64 { return c.points[len(c.points)-1].Value }
