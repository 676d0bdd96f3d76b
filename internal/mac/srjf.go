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
	// scratch is the reusable allocation returned by Allocate; see the
	// Scheduler ownership contract.
	scratch Allocation
}

// Name implements Scheduler.
func (*SRJF) Name() string { return "SRJF" }

// Allocate implements Scheduler.
//
//outran:allocfree
func (s *SRJF) Allocate(now sim.Time, users []*User, grid phy.Grid) Allocation {
	s.scratch.Reset(grid.NumRB)
	alloc := s.scratch
	best := -1
	var bestRem int64
	for ui, u := range users {
		if !u.Buffer.Backlogged() {
			continue
		}
		rem := u.Buffer.OracleMinRemaining
		if rem < 0 {
			// Unknown size sorts last, after any known size.
			rem = 1 << 62
		}
		if best == -1 || rem < bestRem {
			best, bestRem = ui, rem
		}
	}
	if best == -1 {
		return alloc
	}
	for b := range alloc.RBOwner {
		// Skip RBs the winner cannot decode at all.
		if users[best].CQIForRB(b, grid.NumRB) == 0 {
			continue
		}
		alloc.RBOwner[b] = best
	}
	return alloc
}
