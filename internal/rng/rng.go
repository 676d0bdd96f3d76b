// Package rng provides a deterministic random number generator and the
// distribution variates the simulator needs. The generator is
// xoshiro256**, seeded through splitmix64, so identical seeds yield
// identical streams on every platform and Go release.
package rng

import (
	"math"

	"outran/internal/snapshot"
)

// Source is a deterministic pseudo-random source. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Fork returns a new independent Source derived from this one. Use it
// to give each subsystem its own stream so adding draws in one place
// does not perturb another.
func (r *Source) Fork() *Source {
	return New(r.Uint64())
}

// Walk is the generator's checkpoint layout: its full position, the
// four xoshiro256** words. No variate method caches anything outside
// them, so a restored stream resumes bit-exactly.
func (r *Source) Walk(w *snapshot.Walker) {
	for i := range r.s {
		w.U64(&r.s[i])
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential variate with the given mean.
func (r *Source) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normal variate with the given mean and standard
// deviation (Box–Muller).
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Poisson returns a Poisson variate with the given mean (Knuth for
// small means, normal approximation above 30).
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// LogUniform returns a variate log-uniformly distributed in [lo, hi].
func (r *Source) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("rng: LogUniform requires 0 < lo <= hi")
	}
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// Shuffle permutes the order of n elements using swap (Fisher–Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
