// Package workload generates the downlink traffic of the paper's
// evaluations: empirical flow-size distributions (the LTE cellular
// trace of Huang et al. [41], the MIRAGE mobile-app trace [12], the
// DCTCP websearch service [13]), Poisson flow arrivals calibrated to a
// target cell load, the incast scenario of §6.3, and persistent
// QUIC-like connections that reuse one five-tuple for many logical
// flows.
package workload

import (
	"sync"

	"outran/internal/rng"
)

// KB and MB in bytes.
const (
	KB = 1024
	MB = 1024 * KB
)

// The presets are shared immutable tables: an EmpiricalCDF has no
// mutator after construction, and building one integrates its mean
// over 20 000 quantiles, so each is built once, on first use, and every
// caller — concurrent cells of a deployment included — gets the same
// pointer.

// LTECellular is the downlink flow-size distribution measured in
// real-world LTE eNodeBs (Huang et al., SIGCOMM'13): strongly
// heavy-tailed, 90% of flows below 35.9 KB while heavy hitters carry
// most of the volume (Fig 2a).
func LTECellular() *rng.EmpiricalCDF { return lteCellular() }

var lteCellular = sync.OnceValue(func() *rng.EmpiricalCDF {
	return rng.MustCDF([]rng.CDFPoint{
		{Value: 0.2 * KB, Prob: 0.07},
		{Value: 0.6 * KB, Prob: 0.20},
		{Value: 1.5 * KB, Prob: 0.38},
		{Value: 4 * KB, Prob: 0.56},
		{Value: 10 * KB, Prob: 0.72},
		{Value: 35.9 * KB, Prob: 0.90},
		{Value: 100 * KB, Prob: 0.951},
		{Value: 500 * KB, Prob: 0.984},
		{Value: 2 * MB, Prob: 0.995},
		{Value: 10 * MB, Prob: 1},
		// The measured trace continues to hundreds of MB; we bound the
		// tail at 10 MB so bounded-length simulations can realise the
		// distribution (volume-matched arrivals handle the load).
	})
})

// Mirage is the 2019 mobile-app traffic distribution (MIRAGE dataset)
// used for the paper's 5G simulations: a similar heavy tail with a
// larger small-flow mass from app telemetry and API calls.
func Mirage() *rng.EmpiricalCDF { return mirage() }

var mirage = sync.OnceValue(func() *rng.EmpiricalCDF {
	return rng.MustCDF([]rng.CDFPoint{
		{Value: 0.15 * KB, Prob: 0.12},
		{Value: 0.5 * KB, Prob: 0.30},
		{Value: 1.2 * KB, Prob: 0.48},
		{Value: 3 * KB, Prob: 0.62},
		{Value: 8 * KB, Prob: 0.74},
		{Value: 30 * KB, Prob: 0.88},
		{Value: 120 * KB, Prob: 0.95},
		{Value: 600 * KB, Prob: 0.985},
		{Value: 3 * MB, Prob: 0.996},
		{Value: 10 * MB, Prob: 1},
	})
})

// WebSearch is the DCTCP web-search service distribution used for the
// background (bulk) traffic of the testbed experiments; its mean is
// ~1.92 MB as the paper states.
func WebSearch() *rng.EmpiricalCDF { return webSearch() }

var webSearch = sync.OnceValue(func() *rng.EmpiricalCDF {
	return rng.MustCDF([]rng.CDFPoint{
		{Value: 6 * KB, Prob: 0.15},
		{Value: 13 * KB, Prob: 0.28},
		{Value: 19 * KB, Prob: 0.39},
		{Value: 33 * KB, Prob: 0.49},
		{Value: 53 * KB, Prob: 0.58},
		{Value: 133 * KB, Prob: 0.67},
		{Value: 667 * KB, Prob: 0.77},
		{Value: 1.7 * MB, Prob: 0.82},
		{Value: 4 * MB, Prob: 0.86},
		{Value: 10 * MB, Prob: 0.92},
		{Value: 20 * MB, Prob: 1},
	})
})

// ByName resolves a distribution preset.
func ByName(name string) (*rng.EmpiricalCDF, bool) {
	switch name {
	case "lte", "lte-cellular":
		return LTECellular(), true
	case "mirage", "mobile-app":
		return Mirage(), true
	case "websearch", "web-search":
		return WebSearch(), true
	}
	return nil, false
}
