package core

import (
	"math"
	"testing"
	"testing/quick"

	"outran/internal/mac"
	"outran/internal/workload"
)

func TestMLFQValidation(t *testing.T) {
	if _, err := NewMLFQ(nil); err == nil {
		t.Error("empty thresholds accepted")
	}
	if _, err := NewMLFQ([]int64{0, 10}); err == nil {
		t.Error("non-positive threshold accepted")
	}
	if _, err := NewMLFQ([]int64{10, 10}); err == nil {
		t.Error("non-increasing thresholds accepted")
	}
	m, err := NewMLFQ([]int64{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumQueues() != 3 {
		t.Fatalf("queues %d", m.NumQueues())
	}
}

func TestPriorityForDemotion(t *testing.T) {
	m := MustMLFQ([]int64{100, 1000, 10000})
	cases := []struct {
		sent int64
		want int
	}{
		{0, 0}, {99, 0}, {100, 1}, {999, 1}, {1000, 2}, {9999, 2}, {10000, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		if got := m.PriorityFor(c.sent); got != c.want {
			t.Errorf("PriorityFor(%d) = %d, want %d", c.sent, got, c.want)
		}
	}
}

func TestPriorityNeverDecreasesWithBytes(t *testing.T) {
	m := DefaultMLFQ()
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return m.PriorityFor(x) <= m.PriorityFor(y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityForSize(t *testing.T) {
	m := MustMLFQ([]int64{100})
	if m.PriorityForSize(0) != 0 || m.PriorityForSize(100) != 0 || m.PriorityForSize(101) != 1 {
		t.Fatal("PriorityForSize boundary wrong")
	}
}

func TestShortFlowsStayTopPriority(t *testing.T) {
	// The paper's design: a flow under the first threshold completes
	// entirely at P1.
	m := DefaultMLFQ()
	th := m.Thresholds()
	if m.PriorityForSize(th[0]) != 0 {
		t.Fatal("flow exactly at first threshold should finish in P1")
	}
}

func TestThresholdsCopy(t *testing.T) {
	m := MustMLFQ([]int64{10, 20})
	th := m.Thresholds()
	th[0] = 999
	if m.PriorityFor(15) != 1 {
		t.Fatal("Thresholds() leaked internal state")
	}
}

func TestEqualSplit(t *testing.T) {
	dist := workload.LTECellular()
	th := EqualSplit(4, dist.Quantile)
	if len(th) != 3 {
		t.Fatalf("got %d thresholds", len(th))
	}
	for i := 1; i < len(th); i++ {
		if th[i] <= th[i-1] {
			t.Fatal("equal-split thresholds not increasing")
		}
	}
}

func TestSolveThresholdsImprovesOnEqualSplit(t *testing.T) {
	dist := workload.LTECellular()
	seed := EqualSplit(4, dist.Quantile)
	solved := SolveThresholds(4, dist)
	if len(solved) != 3 {
		t.Fatalf("got %d thresholds", len(solved))
	}
	cSeed := thresholdCost(seed, dist)
	cSolved := thresholdCost(solved, dist)
	if cSolved > cSeed+1e-9 {
		t.Fatalf("optimizer made cost worse: %g > %g", cSolved, cSeed)
	}
	for i := 1; i < len(solved); i++ {
		if solved[i] <= solved[i-1] {
			t.Fatal("solved thresholds not strictly increasing")
		}
	}
	// The solved thresholds must be usable.
	if _, err := NewMLFQ(solved); err != nil {
		t.Fatal(err)
	}
}

func TestSolveThresholdsDeterministic(t *testing.T) {
	dist := workload.Mirage()
	a := SolveThresholds(4, dist)
	b := SolveThresholds(4, dist)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("optimizer not deterministic")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Epsilon = 1.5
	if bad.Validate() == nil {
		t.Error("epsilon > 1 accepted")
	}
	bad.Epsilon = math.NaN()
	if bad.Validate() == nil {
		t.Error("NaN epsilon accepted")
	}
	bad = good
	bad.Queues = 1
	if bad.Validate() == nil {
		t.Error("single queue accepted")
	}
	bad.Queues = 1<<16 + 1 // past the 16 bits PDCP keeps a priority in
	if bad.Validate() == nil {
		t.Error("2^16+1 queues accepted")
	}
	bad.Queues = 1 << 16
	if err := bad.Validate(); err != nil {
		t.Errorf("2^16 queues: %v", err)
	}
	bad = good
	bad.Thresholds = []int64{1, 2} // wrong count for 4 queues
	if bad.Validate() == nil {
		t.Error("threshold count mismatch accepted")
	}
	bad = good
	bad.ResetPeriod = -1
	if bad.Validate() == nil {
		t.Error("negative reset period accepted")
	}
}

func TestConfigPolicy(t *testing.T) {
	cfg := DefaultConfig()
	p, err := cfg.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumQueues() != DefaultQueues {
		t.Fatalf("default policy has %d queues", p.NumQueues())
	}
	cfg.Queues = 6
	p, err = cfg.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumQueues() != 6 {
		t.Fatalf("custom policy has %d queues", p.NumQueues())
	}
	cfg.Thresholds = []int64{1, 2, 3, 4, 5}
	if _, err = cfg.Policy(); err != nil {
		t.Fatal(err)
	}
}

func TestNewInterUserValidation(t *testing.T) {
	if _, err := NewInterUser(nil, "PF", 0.2); err == nil {
		t.Error("nil metric accepted")
	}
	if _, err := NewInterUser(mac.PFMetric, "PF", -0.1); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := NewInterUser(mac.PFMetric, "PF", 1.1); err == nil {
		t.Error("epsilon > 1 accepted")
	}
	if _, err := NewInterUser(mac.PFMetric, "PF", math.NaN()); err == nil {
		t.Error("NaN epsilon accepted")
	}
	s, err := NewInterUser(mac.PFMetric, "PF", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "OutRAN(PF,eps=0.2)" {
		t.Fatalf("name %q", s.Name())
	}
}
