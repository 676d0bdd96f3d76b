package core

import (
	"fmt"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/snapshot"
)

// InterUser is OutRAN's inter-user flow scheduler (§4.3, Algorithm 1).
// It wraps any metric and, for every RB, first finds the best
// metric m_max exactly as the legacy scheduler would, then re-selects
// among the candidate set U' = {u : m_u >= (1-ε)·m_max} the user whose
// queued flows hold the highest MLFQ priority. Ties on priority keep
// the best metric, preserving spectral efficiency inside the relaxed
// band. ε=0 degenerates to the legacy scheduler; ε=1 is channel-blind
// strict priority.
type InterUser struct {
	Inner   mac.MetricFunc
	Epsilon float64
	// TopK, when > 0, replaces the ε relaxation with a "top-K users by
	// metric" candidate set. The paper argues this alternative is
	// worse (§4.3); it is kept for the ablation benches.
	TopK int

	// OnDecision, when set, observes every RB allocation: the user the
	// legacy metric would have picked (best, with metric bestM), the
	// size of the relaxed candidate set, and the user actually chosen
	// (sel, with metric selM and MLFQ level selLevel). The relative
	// metric sacrifice (bestM-selM)/bestM is the paper's §5.4
	// per-decision spectral-efficiency cost. Nil costs one pointer
	// check per RB.
	OnDecision DecisionFunc

	name string

	// Unconditional decision audit, maintained for every allocated RB
	// (plain field arithmetic — alloc-free, and independent of the
	// OnDecision hook so live KPI sampling and tracing coexist):
	// decisions counts allocated RBs, overrides how often relaxation
	// picked a different user than the legacy metric, and sacSum the
	// summed relative metric sacrifice (§5.4).
	decisions uint64
	overrides uint64
	sacSum    float64

	// Per-TTI scratch reused across Allocate calls (see the
	// mac.Scheduler ownership contract): the returned allocation, the
	// run boundaries, the backlogged user indices, the per-user metric
	// vector and MLFQ level, and the top-K candidate buffer.
	scratch mac.Allocation
	runs    mac.SubbandRuns
	active  []int
	metrics []float64
	prios   []int
	cands   []topKCand
}

// Audit returns the running decision counters: allocated RBs,
// override count, and the summed §5.4 relative metric sacrifice.
func (s *InterUser) Audit() (decisions, overrides uint64, sacSum float64) {
	return s.decisions, s.overrides, s.sacSum
}

// WalkAudit is the checkpoint layout of the decision counters, the
// scheduler's only state. The zero InterUser walks as three zeros, which
// is what a cell whose scheduler is not an InterUser records.
func (s *InterUser) WalkAudit(w *snapshot.Walker) {
	w.U64(&s.decisions)
	w.U64(&s.overrides)
	w.F64(&s.sacSum)
}

// topKCand is one entry of the top-K candidate scratch.
type topKCand struct {
	ui int
	m  float64
}

// DecisionFunc receives one scheduler decision record per allocated RB.
type DecisionFunc func(now sim.Time, rb, best, sel int, bestM, selM float64, selLevel, candidates int)

// NewInterUser wraps the given metric with relaxation ε in [0, 1].
func NewInterUser(inner mac.MetricFunc, innerName string, epsilon float64) (*InterUser, error) {
	if !(epsilon >= 0 && epsilon <= 1) { // NaN fails too
		return nil, fmt.Errorf("core: epsilon %g outside [0,1]", epsilon)
	}
	if inner == nil {
		return nil, fmt.Errorf("core: nil inner metric")
	}
	return &InterUser{
		Inner:   inner,
		Epsilon: epsilon,
		name:    fmt.Sprintf("OutRAN(%s,eps=%g)", innerName, epsilon),
	}, nil
}

// Name implements mac.Scheduler.
func (s *InterUser) Name() string { return s.name }

// Allocate implements mac.Scheduler with one extra pass over the users,
// keeping the complexity of the legacy scheduler. Nothing a decision
// reads changes within a call and a metric sees an RB only through its
// subband's CQI, so the selection is made once per subband run
// (mac.SubbandRuns) and recorded once per RB of the run. Both passes
// walk the backlogged users only (mac.BackloggedUsers), in index order.
//
//outran:allocfree
func (s *InterUser) Allocate(now sim.Time, users []*mac.User, grid phy.Grid) mac.Allocation {
	s.scratch.Reset(grid.NumRB)
	alloc := s.scratch
	s.active = mac.BackloggedUsers(s.active, users)
	if len(s.active) == 0 {
		return alloc
	}
	// Per-user scratch reused across runs and TTIs. An idle user's
	// metric is 0 for the whole call, which is what top-K reads; a
	// backlogged user's MLFQ level is read once per call, not per run.
	if cap(s.metrics) < len(users) {
		// Not a steady-state allocation: capacity-guarded scratch growth; reruns only when the user population grows
		s.metrics = make([]float64, len(users))
		// Not a steady-state allocation: same guard
		s.prios = make([]int, len(users))
	}
	metrics := s.metrics[:len(users)]
	prios := s.prios[:len(users)]
	clear(metrics)
	for _, ui := range s.active {
		prios[ui] = users[ui].Buffer.TopPriority()
	}
	bounds := s.runs.Of(users, grid.NumRB)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		// First iteration: the legacy selection (lines 4-8), by the
		// allocation rule every scheduler shares; it also fills the
		// metric vector the second iteration reads.
		best, mMax := mac.Owner(s.Inner, nil, users, s.active, lo, grid, now, metrics)
		if best == -1 {
			continue
		}
		// Second iteration: re-selection among the relaxed candidate
		// set (lines 11-16).
		sel := best
		selPrio := prios[best]
		selMetric := mMax
		candidates := 1
		if s.TopK > 0 {
			sel, selPrio, selMetric = s.topKSelect(metrics, prios, best)
			candidates = s.TopK
			if candidates > len(users) {
				candidates = len(users)
			}
		} else if s.Epsilon > 0 {
			candidates = 0
			floor := (1 - s.Epsilon) * mMax
			for _, ui := range s.active {
				if metrics[ui] <= 0 || metrics[ui] < floor {
					continue
				}
				candidates++
				p := prios[ui]
				if p < selPrio || (p == selPrio && metrics[ui] > selMetric) {
					sel, selPrio, selMetric = ui, p, metrics[ui]
				}
			}
		}
		// The audit is per RB. The sacrifice is added RB by RB, not once
		// times the run length: the running float sum keeps the bits it
		// had when every RB was decided on its own.
		sacrifice := 0.0
		if sel != best {
			sacrifice = (mMax - selMetric) / mMax
		}
		for b := lo; b < hi; b++ {
			alloc.RBOwner[b] = sel
			s.decisions++
			if sel != best {
				s.overrides++
				s.sacSum += sacrifice
			}
			if s.OnDecision != nil {
				s.OnDecision(now, b, best, sel, mMax, selMetric, selPrio, candidates)
			}
		}
	}
	return alloc
}

// topKSelect implements the alternative candidate set for the
// ablation: the K users with the highest metrics, regardless of how
// far below m_max they fall.
func (s *InterUser) topKSelect(metrics []float64, prios []int, best int) (int, int, float64) {
	if cap(s.cands) < len(metrics) {
		// Not a steady-state allocation: capacity-guarded scratch growth; reruns only when the user population grows
		s.cands = make([]topKCand, 0, len(metrics))
	}
	cands := s.cands[:0]
	for ui := range metrics {
		if metrics[ui] > 0 {
			// Not a steady-state allocation: bounded by the guard above: at most len(users) appends into cap >= len(users)
			cands = append(cands, topKCand{ui, metrics[ui]})
		}
	}
	// Partial selection sort for the top K (K is small).
	k := s.TopK
	if k > len(cands) {
		k = len(cands)
	}
	for i := 0; i < k; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].m > cands[maxJ].m {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
	sel := best
	selPrio := prios[best]
	selMetric := metrics[best]
	for i := 0; i < k; i++ {
		p := prios[cands[i].ui]
		if p < selPrio || (p == selPrio && cands[i].m > selMetric) {
			sel, selPrio, selMetric = cands[i].ui, p, cands[i].m
		}
	}
	return sel, selPrio, selMetric
}

// StrictMLFQ is the datacenter-style strict priority scheduler ported
// unchanged to the xNodeB (the "strict MLFQ" comparison of Fig 7): it
// always serves the user holding the globally highest MLFQ priority,
// breaking ties by PF metric. Equivalent to InterUser with ε=1.
func StrictMLFQ() *InterUser {
	return &InterUser{Inner: mac.PFMetric, Epsilon: 1, name: "StrictMLFQ"}
}
