package ran

import (
	"fmt"
	"slices"

	"outran/internal/mac"
	"outran/internal/rlc"
	"outran/internal/sim"
)

// maxViolations bounds the report so a broken invariant in a long run
// does not swallow the process; Violated keeps counting.
const maxViolations = 64

// Violation is one invariant breach, timestamped in simulation time.
type Violation struct {
	At     sim.Time
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Rule, v.Detail)
}

// InvariantReport summarises a checked run.
type InvariantReport struct {
	Checks     uint64 // TTI-level invariant sweeps performed
	Deliveries uint64 // SDUs observed crossing RLC->PDCP
	Violated   uint64 // total violations (may exceed len(Violations))
	Violations []Violation
}

// Clean reports whether no invariant was violated.
func (r InvariantReport) Clean() bool { return r.Violated == 0 }

func (r *InvariantReport) violate(at sim.Time, rule, format string, args ...any) {
	r.Violated++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, Violation{At: at, Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
}

// checker is the cell's runtime invariant checker. The cell calls it
// every TTI (clock monotonicity, RB-grid conservation with every owner
// in range, the structural audit), on every SDU it hands up to PDCP
// (no SDU twice and, where the configuration guarantees it, per-UE
// in-order PDCP SNs) and on every re-establishment; report adds the
// teardown checks.
type checker struct {
	numUEs  int
	numRB   int
	snMod   uint32 // PDCP SN space size, for wrap-aware comparison
	inOrder bool   // config guarantees per-UE in-order delivery

	lastTTI sim.Time
	ticked  bool

	// delivered holds one bit per SDU id. Ids come from the cell-wide
	// dense counter Cell.sduSeq, so the set stays as small as the run.
	delivered []uint64
	lastSN    []uint32
	hasSN     []bool

	report InvariantReport
}

// newChecker builds the checker for a configuration. The in-order
// rule is armed only when the configuration guarantees it: RLC AM
// (no loss) and either plain FIFO queueing or OutRAN's delayed SN
// numbering with segment promotion (§4.4), where SNs are assigned in
// wire order. AM with MLFQ reordering but immediate SNs legitimately
// delivers out of order, so the rule would false-positive there.
func newChecker(cfg *Config) *checker {
	return &checker{
		numUEs: cfg.NumUEs,
		numRB:  cfg.Grid.NumRB,
		snMod:  uint32(1) << uint(cfg.PDCPSNBits),
		inOrder: cfg.RLC == AM &&
			(!cfg.usesMLFQ() || (cfg.OutRAN.DelayedSN && cfg.OutRAN.SegmentPromotion)),
		lastSN: make([]uint32, cfg.NumUEs),
		hasSN:  make([]bool, cfg.NumUEs),
	}
}

// tti runs the per-interval sweep; audit is Cell.AuditInvariants's
// verdict at now.
func (k *checker) tti(now sim.Time, alloc mac.Allocation, audit error) {
	r := &k.report
	r.Checks++
	if k.ticked && now <= k.lastTTI {
		r.violate(now, "clock-monotone", "TTI at %v after TTI at %v", now, k.lastTTI)
	}
	k.ticked, k.lastTTI = true, now
	if len(alloc.RBOwner) != k.numRB {
		r.violate(now, "rb-conservation", "allocation covers %d RBs, grid has %d", len(alloc.RBOwner), k.numRB)
	}
	for rb, owner := range alloc.RBOwner {
		if owner < -1 || owner >= k.numUEs {
			r.violate(now, "rb-owner-range", "RB %d owned by %d, want [-1,%d)", rb, owner, k.numUEs)
		}
	}
	if audit != nil {
		r.violate(now, "structural-audit", "%v", audit)
	}
}

// deliver observes one SDU crossing from RLC up to UE ue's PDCP.
func (k *checker) deliver(now sim.Time, ue int, sdu *rlc.SDU) {
	r := &k.report
	r.Deliveries++
	w, bit := int(sdu.ID>>6), uint64(1)<<(sdu.ID&63)
	if w >= len(k.delivered) {
		k.delivered = slices.Grow(k.delivered, w+1-len(k.delivered))[:w+1]
	}
	if k.delivered[w]&bit != 0 {
		r.violate(now, "no-duplicate", "ue %d: SDU %d delivered twice", ue, sdu.ID)
	}
	k.delivered[w] |= bit
	if !k.inOrder || ue < 0 || ue >= k.numUEs {
		return
	}
	sn := sdu.PDCPSN % k.snMod
	if k.hasSN[ue] {
		// Wrap-aware: sn must be "ahead" of the last SN within half
		// the SN space (the same half-window rule PDCP HFN inference
		// uses).
		if diff := (sn - k.lastSN[ue]) % k.snMod; diff == 0 || diff >= k.snMod/2 {
			r.violate(now, "in-order", "ue %d: PDCP SN %d after %d", ue, sn, k.lastSN[ue])
		}
	}
	k.lastSN[ue], k.hasSN[ue] = sn, true
}

// reestablish restarts UE ue's SN tracking: re-establishment rebuilds
// the PDCP entities with fresh COUNT state, so the SN sequence restarts.
func (k *checker) reestablish(ue int) {
	if ue >= 0 && ue < k.numUEs {
		k.hasSN[ue] = false
	}
}

// final returns the report with the teardown checks folded in, from
// the audit's verdict and the cell's stats at now. The checker's own
// report is left as it was, so asking twice gives the same answer.
func (k *checker) final(now sim.Time, audit error, st Stats) InvariantReport {
	r := k.report
	r.Violations = slices.Clip(r.Violations)
	if audit != nil {
		r.violate(now, "final-audit", "%v", audit)
	}
	if st.FlowsCompleted > st.FlowsStarted {
		r.violate(now, "flow-conservation", "%d flows completed, only %d started", st.FlowsCompleted, st.FlowsStarted)
	}
	// Every abandoned AM PDU must have fired the delivery-failure
	// callback, or an RLC loss would go unsignalled.
	if st.AMAbandoned != st.AMDeliveryFailures {
		r.violate(now, "am-loss-signalled", "%d PDUs abandoned but %d delivery failures signalled", st.AMAbandoned, st.AMDeliveryFailures)
	}
	return r
}

// InstallChecker arms the runtime invariant checker from the next
// event on, replacing any earlier one. Like the tracer it is run-time
// instrumentation, not configuration: no checkpoint carries it.
func (c *Cell) InstallChecker() { c.checker = newChecker(&c.cfg) }

// InvariantReport returns the checker's report with the teardown
// checks (final audit, flow conservation, every abandoned AM PDU
// signalled) run at the current instant. Without an installed checker
// it is the zero report, whose Checks of 0 says nothing was checked.
func (c *Cell) InvariantReport() InvariantReport {
	if c.checker == nil {
		return InvariantReport{}
	}
	return c.checker.final(c.Eng.Now(), c.AuditInvariants(), c.CollectStats())
}
