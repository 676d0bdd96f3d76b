package mac

import (
	"outran/internal/phy"
	"outran/internal/sim"
)

// SRJF is the clairvoyant Shortest Remaining Job First scheduler used
// as the motivation baseline (§3): it gives every RB to the user whose
// queued flows include the one with the smallest remaining size,
// entirely ignoring channel conditions. This is optimal for FCT over
// a fixed-rate link and, as the paper shows, disastrous for spectral
// efficiency and fairness over a wireless one.
type SRJF struct {
	ms     MetricScheduler
	winner *User // this TTI's shortest-remaining user, the only one that scores
}

// NewSRJF returns the SRJF scheduler.
func NewSRJF() *SRJF {
	s := &SRJF{}
	s.ms = MetricScheduler{SchedName: "SRJF", Metric: func(u *User, cqi phy.CQI, _ phy.Grid, _ sim.Time) float64 {
		if u != s.winner || cqi == 0 {
			return 0
		}
		return 1
	}}
	return s
}

// Name implements Scheduler.
func (*SRJF) Name() string { return "SRJF" }

// Allocate implements Scheduler: it picks the winner, and the shared
// allocation rule gives it every run on which it can decode at all.
//
//outran:allocfree
func (s *SRJF) Allocate(now sim.Time, users []*User, grid phy.Grid) Allocation {
	s.winner = nil
	var bestRem int64
	for _, u := range users {
		if !u.Buffer.Backlogged() {
			continue
		}
		rem := u.Buffer.OracleMinRemaining
		if rem < 0 {
			// Unknown size sorts last, after any known size.
			rem = 1 << 62
		}
		if s.winner == nil || rem < bestRem {
			s.winner, bestRem = u, rem
		}
	}
	return s.ms.Allocate(now, users, grid)
}
