package ran

import (
	"errors"
	"reflect"
	"testing"

	"outran/internal/mac"
	"outran/internal/rlc"
	"outran/internal/sim"
)

// TestCheckerRulesFire feeds the checker one breach of each rule and
// expects exactly that rule's name, and feeds it the legal look-alikes
// (an SN that wraps, an SN that restarts after re-establishment, any
// order at all under UM) and expects a clean report.
func TestCheckerRulesFire(t *testing.T) {
	const ms = sim.Millisecond
	am := smallConfig(SchedPF)
	am.RLC = AM
	um := smallConfig(SchedPF)
	um.RLC = UM
	mod := uint32(1) << am.PDCPSNBits
	grid := func(owners ...int) mac.Allocation {
		a := mac.Allocation{RBOwner: make([]int, am.Grid.NumRB)}
		copy(a.RBOwner, owners)
		return a
	}
	deliver := func(k *checker, ue int, id uint64, sn uint32) {
		k.deliver(ms, ue, &rlc.SDU{ID: id, PDCPSN: sn})
	}
	broken := errors.New("ue 0: broken")
	cases := []struct {
		name  string
		cfg   Config
		feed  func(k *checker)
		audit error // the teardown audit's verdict
		stats Stats
		want  string // the one rule that fires; "" for none
	}{
		{name: "clean", cfg: am, feed: func(k *checker) {
			k.tti(ms, grid(-1, 0, 5), nil)
			k.tti(2*ms, grid(), nil)
			deliver(k, 0, 1, 7)
			deliver(k, 0, 2, 8)
			deliver(k, 1, 3, 0)
		}, stats: Stats{FlowsStarted: 2, FlowsCompleted: 2, AMAbandoned: 1, AMDeliveryFailures: 1}},
		{name: "repeated TTI instant", cfg: am, want: "clock-monotone", feed: func(k *checker) {
			k.tti(ms, grid(), nil)
			k.tti(ms, grid(), nil)
		}},
		{name: "short RBOwner", cfg: am, want: "rb-conservation", feed: func(k *checker) {
			k.tti(ms, mac.Allocation{RBOwner: make([]int, am.Grid.NumRB-1)}, nil)
		}},
		{name: "owner out of range", cfg: am, want: "rb-owner-range", feed: func(k *checker) {
			k.tti(ms, grid(0, am.NumUEs), nil)
		}},
		{name: "owner below -1", cfg: am, want: "rb-owner-range", feed: func(k *checker) {
			k.tti(ms, grid(-2), nil)
		}},
		{name: "structural audit", cfg: am, want: "structural-audit", feed: func(k *checker) {
			k.tti(ms, grid(), broken)
		}},
		{name: "duplicate SDU id", cfg: am, want: "no-duplicate", feed: func(k *checker) {
			deliver(k, 0, 70, 1)
			deliver(k, 1, 70, 1)
		}},
		{name: "out-of-order SN", cfg: am, want: "in-order", feed: func(k *checker) {
			deliver(k, 0, 1, 5)
			deliver(k, 0, 2, 4)
		}},
		{name: "repeated SN", cfg: am, want: "in-order", feed: func(k *checker) {
			deliver(k, 0, 1, 5)
			deliver(k, 0, 2, 5)
		}},
		{name: "SN wraps", cfg: am, feed: func(k *checker) {
			deliver(k, 0, 1, mod-1)
			deliver(k, 0, 2, mod) // COUNT mod-1 then mod: SN mod-1 then 0
			deliver(k, 0, 3, 1)
		}},
		{name: "SN restarts after re-establishment", cfg: am, feed: func(k *checker) {
			deliver(k, 0, 1, 5)
			k.reestablish(0)
			deliver(k, 0, 2, 0)
		}},
		{name: "out-of-order SN under UM", cfg: um, feed: func(k *checker) {
			deliver(k, 0, 1, 5)
			deliver(k, 0, 2, 4)
		}},
		{name: "final audit", cfg: am, want: "final-audit", audit: broken},
		{name: "flows completed > started", cfg: am, want: "flow-conservation",
			stats: Stats{FlowsStarted: 1, FlowsCompleted: 2}},
		{name: "abandoned ≠ signalled", cfg: am, want: "am-loss-signalled",
			stats: Stats{AMAbandoned: 2, AMDeliveryFailures: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newChecker(&tc.cfg)
			if tc.feed != nil {
				tc.feed(k)
			}
			rep := k.final(3*ms, tc.audit, tc.stats)
			if tc.want == "" {
				if !rep.Clean() {
					t.Fatalf("want clean, got %v", rep.Violations)
				}
				return
			}
			if rep.Violated != 1 || len(rep.Violations) != 1 || rep.Violations[0].Rule != tc.want {
				t.Fatalf("want one %q violation, got %d: %v", tc.want, rep.Violated, rep.Violations)
			}
		})
	}
}

// TestCheckerReportCap: the report keeps the first 64 violations while
// Violated counts them all, and asking for the report twice neither
// adds the teardown violations twice nor changes what was returned.
func TestCheckerReportCap(t *testing.T) {
	cfg := smallConfig(SchedPF)
	k := newChecker(&cfg)
	for i := 0; i < 100; i++ {
		k.deliver(sim.Time(i), 0, &rlc.SDU{ID: 1})
	}
	if k.report.Violated != 99 || len(k.report.Violations) != maxViolations {
		t.Fatalf("after 99 duplicates: Violated %d, %d kept; want 99, %d", k.report.Violated, len(k.report.Violations), maxViolations)
	}
	if k.report.Deliveries != 100 {
		t.Fatalf("Deliveries %d, want 100", k.report.Deliveries)
	}
	bad := Stats{FlowsCompleted: 1}
	first := k.final(sim.Second, nil, bad)
	if first.Violated != 100 || len(first.Violations) != maxViolations {
		t.Fatalf("report: Violated %d, %d kept; want 100, %d", first.Violated, len(first.Violations), maxViolations)
	}
	kept := append([]Violation(nil), first.Violations...)
	if again := k.final(sim.Second, nil, bad); !reflect.DeepEqual(again, first) {
		t.Fatalf("second report differs:\n%+v\n%+v", again, first)
	}
	k.deliver(sim.Second, 0, &rlc.SDU{ID: 1})
	if !reflect.DeepEqual(first.Violations, kept) {
		t.Fatal("a later violation rewrote a returned report")
	}
}

// TestInvariantReportWithoutChecker: a cell with no checker installed
// reports nothing checked, which callers must not read as clean.
func TestInvariantReportWithoutChecker(t *testing.T) {
	cell, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	cell.Run(10 * sim.Millisecond)
	if rep := cell.InvariantReport(); !reflect.DeepEqual(rep, InvariantReport{}) {
		t.Fatalf("report %+v, want the zero report", rep)
	}
	cell.InstallChecker()
	cell.Run(20 * sim.Millisecond)
	if rep := cell.InvariantReport(); rep.Checks != 10 || !rep.Clean() {
		t.Fatalf("report %+v, want 10 clean TTI checks", rep)
	}
}

// installChecker is a Harness.Setup that installs the invariant
// checker.
func installChecker(c *Cell) error {
	c.InstallChecker()
	return nil
}

// requireClean fails t unless the cell's checker swept TTIs and saw
// deliveries without a violation.
func requireClean(t *testing.T, c *Cell) {
	t.Helper()
	rep := c.InvariantReport()
	if !rep.Clean() {
		t.Fatalf("%d invariant violation(s), first: %v", rep.Violated, rep.Violations)
	}
	if rep.Checks == 0 || rep.Deliveries == 0 {
		t.Fatalf("the checker checked nothing: %+v", rep)
	}
}
