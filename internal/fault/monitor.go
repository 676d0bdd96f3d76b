package fault

import (
	"fmt"

	"outran/internal/mac"
	"outran/internal/ran"
	"outran/internal/rlc"
	"outran/internal/sim"
)

// maxViolations bounds the report so a broken invariant in a long run
// does not swallow the process; the count keeps incrementing.
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

// Report summarises a monitored run.
type Report struct {
	Checks     uint64 // TTI-level invariant sweeps performed
	Deliveries uint64 // SDUs observed crossing RLC->PDCP
	Violated   uint64 // total violations (may exceed len(Violations))
	Violations []Violation
}

// Clean reports whether no invariant was violated.
func (r Report) Clean() bool { return r.Violated == 0 }

// Monitor is the runtime invariant checker. Attached to a cell it
// asserts, every TTI: engine clock monotonicity, RB-grid conservation
// (every resource block accounted to exactly one owner in range), and
// the cell's structural audit (RLC AM tx/rx consistency, bounded
// queue growth, HARQ bookkeeping). Per delivery it asserts no-
// duplicate SDU delivery and — when the configuration guarantees it —
// in-order PDCP SN delivery per UE. Finalize adds teardown checks.
type Monitor struct {
	cell    *ran.Cell
	numUEs  int
	numRB   int
	snMod   uint32 // PDCP SN space size, for wrap-aware comparison
	inOrder bool   // config guarantees per-UE in-order delivery

	lastTTI  sim.Time
	firstTTI bool

	seen   map[uint64]bool // delivered SDU IDs (duplicate check)
	lastSN []uint32
	hasSN  []bool

	report Report
}

// NewMonitor builds a monitor for the cell. The in-order delivery
// check is armed only when the configuration guarantees it: RLC AM
// (no-loss) and either plain FIFO queueing or OutRAN's delayed SN
// numbering with segment promotion (§4.4), where SNs are assigned in
// wire order. AM with MLFQ reordering but immediate SNs legitimately
// delivers out of order, so the check would false-positive there.
func NewMonitor(cell *ran.Cell) *Monitor {
	cfg := cell.Config()
	mlfq := cfg.Scheduler == ran.SchedOutRAN || cfg.Scheduler == ran.SchedStrictMLFQ
	inOrder := cfg.RLC == ran.AM &&
		(!mlfq || (cfg.OutRAN.DelayedSN && cfg.OutRAN.SegmentPromotion))
	return &Monitor{
		cell:     cell,
		numUEs:   cfg.NumUEs,
		numRB:    cfg.Grid.NumRB,
		snMod:    uint32(1) << uint(cfg.PDCPSNBits),
		inOrder:  inOrder,
		firstTTI: true,
		seen:     make(map[uint64]bool),
		lastSN:   make([]uint32, cfg.NumUEs),
		hasSN:    make([]bool, cfg.NumUEs),
	}
}

// Report returns the violations and counters collected so far.
func (m *Monitor) Report() Report { return m.report }

func (m *Monitor) violate(rule, format string, args ...interface{}) {
	m.report.Violated++
	if len(m.report.Violations) < maxViolations {
		m.report.Violations = append(m.report.Violations, Violation{
			At:     m.cell.Eng.Now(),
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// onTTI runs the per-interval sweep.
func (m *Monitor) onTTI(now sim.Time, alloc mac.Allocation) {
	m.report.Checks++
	if !m.firstTTI && now <= m.lastTTI {
		m.violate("clock-monotone", "TTI at %v after TTI at %v", now, m.lastTTI)
	}
	m.firstTTI = false
	m.lastTTI = now

	if len(alloc.RBOwner) != m.numRB {
		m.violate("rb-conservation", "allocation covers %d RBs, grid has %d", len(alloc.RBOwner), m.numRB)
	}
	for rb, owner := range alloc.RBOwner {
		if owner < -1 || owner >= m.numUEs {
			m.violate("rb-owner-range", "RB %d owned by %d, want [-1,%d)", rb, owner, m.numUEs)
		}
	}
	if err := m.cell.AuditInvariants(); err != nil {
		m.violate("structural-audit", "%v", err)
	}
}

// onDeliver observes one SDU crossing from RLC up to PDCP at the UE.
func (m *Monitor) onDeliver(ue int, sdu *rlc.SDU) {
	m.report.Deliveries++
	if m.seen[sdu.ID] {
		m.violate("no-duplicate", "ue %d: SDU %d delivered twice", ue, sdu.ID)
	}
	m.seen[sdu.ID] = true
	if !m.inOrder || ue < 0 || ue >= m.numUEs {
		return
	}
	sn := sdu.PDCPSN % m.snMod
	if m.hasSN[ue] {
		// Wrap-aware: sn must be "ahead" of the last SN within half
		// the SN space (the same half-window rule PDCP HFN inference
		// uses).
		diff := (sn - m.lastSN[ue]) % m.snMod
		if diff == 0 || diff >= m.snMod/2 {
			m.violate("in-order", "ue %d: PDCP SN %d after %d", ue, sn, m.lastSN[ue])
		}
	}
	m.lastSN[ue] = sn
	m.hasSN[ue] = true
}

// onReestablish resets per-UE tracking: re-establishment rebuilds the
// PDCP entities with fresh COUNT state, so the SN sequence restarts.
func (m *Monitor) onReestablish(ue int, _ sim.Time) {
	if ue >= 0 && ue < m.numUEs {
		m.hasSN[ue] = false
	}
}

// Finalize runs the teardown checks and returns the final report.
func (m *Monitor) Finalize() Report {
	if err := m.cell.AuditInvariants(); err != nil {
		m.violate("final-audit", "%v", err)
	}
	st := m.cell.CollectStats()
	if st.FlowsCompleted > st.FlowsStarted {
		m.violate("flow-conservation", "%d flows completed, only %d started", st.FlowsCompleted, st.FlowsStarted)
	}
	// Every abandoned AM PDU must have fired the delivery-failure
	// callback — the silent-loss regression this PR fixes.
	if st.AMAbandoned != st.AMDeliveryFailures {
		m.violate("am-loss-signalled", "%d PDUs abandoned but %d delivery failures signalled", st.AMAbandoned, st.AMDeliveryFailures)
	}
	return m.report
}

// Attach wires the injector (may be nil for monitor-only baselines)
// and monitor (may be nil) into one merged hook set on the cell, and
// schedules the plan's transitions. Call once, before the first Run.
func Attach(cell *ran.Cell, plan Plan, inj *Injector, mon *Monitor) {
	var h ran.FaultHooks
	if inj != nil {
		inj.Schedule(plan)
		h = inj.hooks()
	}
	if mon != nil {
		h.OnTTI = mon.onTTI
		h.OnDeliver = mon.onDeliver
		h.OnReestablish = mon.onReestablish
	}
	cell.SetFaultHooks(h)
}
