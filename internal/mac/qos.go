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

// NewPSS approximates the NS-3 LENA Priority Set Scheduler: users are
// split into two sets — those with queued QoS traffic form the
// priority set and are served first (time-domain priority), each set
// being scheduled with the PF metric in the frequency domain.
func NewPSS() *MetricScheduler {
	return &MetricScheduler{SchedName: "PSS", Metric: PFMetric, class: func(u *User) int {
		if u.Buffer.QoSBytes > 0 {
			return 1
		}
		return 0
	}}
}

// NewCQA approximates the Channel and QoS Aware scheduler (Bojovic &
// Baldo 2014): the metric is the PF metric weighted by the
// head-of-line delay of the user's QoS traffic relative to its delay
// budget, so QoS packets approaching their budget pre-empt everyone
// else, channel permitting.
func NewCQA() *MetricScheduler {
	return &MetricScheduler{SchedName: "CQA", Metric: func(u *User, cqi phy.CQI, grid phy.Grid, now sim.Time) float64 {
		return PFMetric(u, cqi, grid, now) * cqaWeight(u, now)
	}}
}

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
