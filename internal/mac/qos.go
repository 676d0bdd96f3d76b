package mac

import (
	"math"

	"outran/internal/phy"
	"outran/internal/sim"
)

// The two QoS-aware baselines of §6.2. Both assume the operator has
// identified latency-sensitive flows (the paper grants them oracle
// flow-size knowledge and a 50 ms delay budget for flows < 10 KB);
// OutRAN competes against them without any such prior.

// PSS approximates the NS-3 LENA Priority Set Scheduler: users are
// split into two sets — those with queued QoS traffic form the
// priority set and are served first (time-domain priority), each set
// being scheduled with the PF metric in the frequency domain.
type PSS struct {
	// scratch is the reusable allocation returned by Allocate; see the
	// Scheduler ownership contract.
	scratch Allocation
	runs    SubbandRuns
	active  []int // BackloggedUsers scratch
}

// Name implements Scheduler.
func (*PSS) Name() string { return "PSS" }

// Allocate implements Scheduler.
//
//outran:allocfree
func (s *PSS) Allocate(now sim.Time, users []*User, grid phy.Grid) Allocation {
	s.scratch.Reset(grid.NumRB)
	alloc := s.scratch
	s.active = BackloggedUsers(s.active, users)
	if len(s.active) == 0 {
		return alloc
	}
	bounds := s.runs.Of(users, grid.NumRB)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		best, bestM := -1, 0.0
		bestQoS := false
		for _, ui := range s.active {
			u := users[ui]
			m := PFMetric(u, u.CQIForRB(lo, grid.NumRB), grid, now)
			if m <= 0 {
				continue
			}
			qos := u.Buffer.QoSBytes > 0
			// Priority set strictly dominates.
			if qos && !bestQoS {
				best, bestM, bestQoS = ui, m, true
				continue
			}
			if qos == bestQoS && (best == -1 || m > bestM) {
				best, bestM = ui, m
			}
		}
		for b := lo; b < hi; b++ {
			alloc.RBOwner[b] = best
		}
	}
	return alloc
}

// CQA approximates the Channel and QoS Aware scheduler (Bojovic &
// Baldo 2014): the metric is the PF metric weighted by the
// head-of-line delay of the user's QoS traffic relative to its delay
// budget, so QoS packets approaching their budget pre-empt everyone
// else, channel permitting.
type CQA struct {
	// ms is the wrapped metric scheduler, built on first use so the
	// per-TTI path reuses its allocation scratch.
	ms MetricScheduler
}

// Name implements Scheduler.
func (*CQA) Name() string { return "CQA" }

// cqaWeight grows from 1 toward a hard priority as the QoS HOL delay
// approaches the delay budget.
func cqaWeight(u *User, now sim.Time) float64 {
	if u.Buffer.QoSBytes == 0 || u.Buffer.QoSDelayBudget <= 0 {
		return 1
	}
	hol := now - u.Buffer.QoSHOLArrival
	frac := float64(hol) / float64(u.Buffer.QoSDelayBudget)
	if frac < 0 {
		frac = 0
	}
	if frac > 6 {
		frac = 6
	}
	// 2^(2*frac): doubles at half budget, x4 at the budget, and keeps
	// growing past it, emulating the LENA implementation's d_HOL
	// exponent while staying channel-aware.
	return math.Exp2(2 * frac)
}

// Allocate implements Scheduler.
//
//outran:allocfree
func (c *CQA) Allocate(now sim.Time, users []*User, grid phy.Grid) Allocation {
	if c.ms.Metric == nil {
		// Not a steady-state allocation: one-time lazy construction of the wrapped scheduler; never reruns in steady state
		c.ms = MetricScheduler{SchedName: "CQA", Metric: func(u *User, cqi phy.CQI, grid phy.Grid, t sim.Time) float64 {
			return PFMetric(u, cqi, grid, t) * cqaWeight(u, t)
		}}
	}
	return c.ms.Allocate(now, users, grid)
}
