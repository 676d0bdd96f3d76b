package mac

import (
	"outran/internal/phy"
	"outran/internal/sim"
)

// Allocation is the result of one TTI's RB allocation. RBOwner[b] is
// the index into the users slice of the UE that owns RB b, or -1.
type Allocation struct {
	RBOwner []int
}

// NewAllocation returns an allocation with all RBs unassigned.
func NewAllocation(numRB int) Allocation {
	a := Allocation{}
	a.Reset(numRB)
	return a
}

// Reset resizes the allocation to numRB with every RB unassigned,
// reusing the backing array when capacity allows. Schedulers call it
// once per TTI on their scratch allocation, so the steady-state
// scheduling path performs no allocation.
func (a *Allocation) Reset(numRB int) {
	if cap(a.RBOwner) < numRB {
		// Not a steady-state allocation: capacity-guarded scratch growth; first TTI only, steady state reuses the array
		a.RBOwner = make([]int, numRB)
	}
	a.RBOwner = a.RBOwner[:numRB]
	for i := range a.RBOwner {
		a.RBOwner[i] = -1
	}
}

// Allocated returns the number of RBs assigned to any user.
func (a Allocation) Allocated() int {
	n := 0
	for _, o := range a.RBOwner {
		if o >= 0 {
			n++
		}
	}
	return n
}

// Scheduler allocates the grid's RBs to backlogged users each TTI.
//
// Ownership contract: the Allocation returned by Allocate aliases
// scratch owned by the scheduler and is valid only until the next
// Allocate call on the same scheduler — exactly one TTI, the lifetime
// the MAC needs. Callers that retain it longer must copy
// RBOwner. One
// scheduler instance serves one cell; concurrent Allocate calls on a
// shared instance are not supported.
type Scheduler interface {
	Name() string
	// Allocate assigns the grid's RBs for one TTI. The returned
	// Allocation aliases scheduler-owned scratch (see the ownership
	// contract above).
	Allocate(now sim.Time, users []*User, grid phy.Grid) Allocation
}

// MetricFunc is the scheduling metric m_{u,b}(t) (eq. 1) of user u on
// any RB whose subband u reported at cqi. Higher wins the RB. It takes
// the CQI and not the RB index: an RB reaches a metric only through its
// subband's CQI, so a metric cannot vary inside a subband run and the
// schedulers evaluate it once per run (see SubbandRuns).
type MetricFunc func(u *User, cqi phy.CQI, grid phy.Grid, now sim.Time) float64

// Owner is the one allocation rule every scheduler applies to the
// subband run that starts at RB lo: the run goes to the backlogged user
// (active, ascending, as BackloggedUsers returns it) with the highest
// class, then the highest metric > 0, ties to the lowest index. A run no
// backlogged user scores above 0 stays idle, owner -1. Every metric in
// this package is 0 at CQI 0, where an RB carries no bits: granting it
// would only put CQI 0's −Inf decode floor into the owner's transport
// block, which would then decode for free.
//
// A nil class puts every user in one class. When scores is non-nil,
// scores[ui] receives the metric of every backlogged user ui; the
// metric is evaluated once per user and run either way.
func Owner(metric MetricFunc, class func(*User) int, users []*User, active []int,
	lo int, grid phy.Grid, now sim.Time, scores []float64) (owner int, best float64) {
	owner = -1
	bestClass := 0
	for _, ui := range active {
		u := users[ui]
		m := metric(u, u.CQIForRB(lo, grid.NumRB), grid, now)
		if scores != nil {
			scores[ui] = m
		}
		if m <= 0 {
			continue
		}
		c := 0
		if class != nil {
			c = class(u)
		}
		if owner == -1 || c > bestClass || (c == bestClass && m > best) {
			owner, best, bestClass = ui, m, c
		}
	}
	return owner, best
}

// MetricScheduler is the standard sub-optimal allocator of §4.1: every
// RB goes to the owner Owner picks for it, independently of other RBs.
// The decision is made once per subband run, O(|backlogged U|·runs),
// and written to each RB of the run. PF, MT, RR, CQA and PSS are
// MetricSchedulers and SRJF wraps one: they differ only in scoring.
type MetricScheduler struct {
	SchedName string
	Metric    MetricFunc
	// class is Owner's first key; nil for all but PSS.
	class func(*User) int

	// scratch is the reusable allocation returned by Allocate; see the
	// Scheduler ownership contract.
	scratch Allocation
	runs    SubbandRuns
	active  []int // BackloggedUsers scratch
}

// Name implements Scheduler.
func (s *MetricScheduler) Name() string { return s.SchedName }

// Allocate implements Scheduler.
//
//outran:allocfree
func (s *MetricScheduler) Allocate(now sim.Time, users []*User, grid phy.Grid) Allocation {
	s.scratch.Reset(grid.NumRB)
	s.active = BackloggedUsers(s.active, users)
	if len(s.active) == 0 {
		return s.scratch
	}
	bounds := s.runs.Of(users, grid.NumRB)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		owner, _ := Owner(s.Metric, s.class, users, s.active, lo, grid, now, nil)
		for b := lo; b < hi; b++ {
			s.scratch.RBOwner[b] = owner
		}
	}
	return s.scratch
}

// PFMetric is the Proportional Fair metric r_{u,b}/R̃_u.
func PFMetric(u *User, cqi phy.CQI, grid phy.Grid, now sim.Time) float64 {
	return phy.RatePerRB(cqi, grid) / pfDenominator(u)
}

// MTMetric is the Maximum Throughput metric r_{u,b}.
func MTMetric(u *User, cqi phy.CQI, grid phy.Grid, now sim.Time) float64 {
	return phy.RatePerRB(cqi, grid)
}

// NewPF returns the de-facto standard Proportional Fair scheduler.
func NewPF() *MetricScheduler {
	return &MetricScheduler{SchedName: "PF", Metric: PFMetric}
}

// NewMT returns the Maximum Throughput scheduler.
func NewMT() *MetricScheduler {
	return &MetricScheduler{SchedName: "MT", Metric: MTMetric}
}

// NewRR returns a Round-Robin-like scheduler that favours the least
// recently served backlogged user (channel-blind).
func NewRR() *MetricScheduler {
	return &MetricScheduler{
		SchedName: "RR",
		Metric: func(u *User, cqi phy.CQI, grid phy.Grid, now sim.Time) float64 {
			if cqi == 0 {
				return 0
			}
			// Older LastServed -> larger metric.
			return 1 + float64(now-u.LastServed)
		},
	}
}
