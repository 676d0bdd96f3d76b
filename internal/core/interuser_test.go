package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/probetest"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/snapshot/snapshottest"
)

// testUsers builds a set of backlogged users with controllable CQI and
// MLFQ top priority.
func testUsers(cqis []phy.CQI, topPrio []int) []*mac.User {
	users := make([]*mac.User, len(cqis))
	for i := range cqis {
		perPrio := make([]int, 4)
		perPrio[topPrio[i]] = 1000
		users[i] = &mac.User{
			ID:         mac.UserID(i),
			SubbandCQI: []phy.CQI{cqis[i]},
			AvgTputBps: 1e6, // equal PF denominators: metric ∝ rate
			Buffer:     mac.BufferStatus{TotalBytes: 1000, PerPriority: perPrio},
		}
	}
	return users
}

func grid1() phy.Grid { return phy.Grid{Numerology: phy.Mu0, NumRB: 4, CarrierHz: 2e9} }

func TestEpsilonZeroMatchesLegacy(t *testing.T) {
	users := testUsers([]phy.CQI{15, 10, 5}, []int{3, 0, 0})
	legacy := mac.NewPF()
	outran, err := NewInterUser(mac.PFMetric, "PF", 0)
	if err != nil {
		t.Fatal(err)
	}
	a := legacy.Allocate(0, users, grid1())
	b := outran.Allocate(0, users, grid1())
	for i := range a.RBOwner {
		if a.RBOwner[i] != b.RBOwner[i] {
			t.Fatalf("eps=0 diverges from legacy at RB %d: %d vs %d", i, a.RBOwner[i], b.RBOwner[i])
		}
	}
}

func TestReselectionPrefersShortFlowUser(t *testing.T) {
	// User 0 has the best channel but only long-flow (P4) traffic;
	// user 1 is within epsilon and holds P1 traffic -> user 1 wins.
	users := testUsers([]phy.CQI{15, 14, 5}, []int{3, 0, 0})
	outran, err := NewInterUser(mac.PFMetric, "PF", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	alloc := outran.Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatalf("RB %d given to user %d, want 1", b, o)
		}
	}
}

func TestReselectionRespectsEpsilonFloor(t *testing.T) {
	// User 2 has P1 traffic but a channel far below (1-eps) of the
	// best metric: it must NOT be selected.
	users := testUsers([]phy.CQI{15, 15, 3}, []int{2, 2, 0})
	outran, err := NewInterUser(mac.PFMetric, "PF", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	alloc := outran.Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o == 2 {
			t.Fatalf("RB %d went to the bad-channel user despite eps floor", b)
		}
	}
}

func TestTieBreakKeepsBestMetric(t *testing.T) {
	// Same priority everywhere: the original best-metric user keeps
	// the RBs (spectral efficiency preserved).
	users := testUsers([]phy.CQI{15, 13, 12}, []int{1, 1, 1})
	outran, err := NewInterUser(mac.PFMetric, "PF", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	alloc := outran.Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o != 0 {
			t.Fatalf("RB %d not kept by best user: %d", b, o)
		}
	}
}

func TestStrictMLFQIgnoresChannel(t *testing.T) {
	// Strict MLFQ (eps=1) picks the P1 user even with the worst
	// channel — the datacenter port that costs spectral efficiency.
	users := testUsers([]phy.CQI{15, 14, 2}, []int{2, 2, 0})
	alloc := StrictMLFQ().Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o != 2 {
			t.Fatalf("strict MLFQ RB %d to user %d, want 2", b, o)
		}
	}
}

func TestEmptyBuffersGetNothing(t *testing.T) {
	users := testUsers([]phy.CQI{15, 15}, []int{0, 0})
	users[0].Buffer.TotalBytes = 0
	users[1].Buffer.TotalBytes = 0
	outran, _ := NewInterUser(mac.PFMetric, "PF", 0.2)
	alloc := outran.Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o != -1 {
			t.Fatalf("RB %d allocated to %d with no backlog", b, o)
		}
	}
}

func TestTopKSelection(t *testing.T) {
	// Top-K with K=2: only the two best metrics are candidates even
	// though user 2 (P1) is within any epsilon of nothing.
	users := testUsers([]phy.CQI{15, 14, 13}, []int{2, 2, 0})
	s := &InterUser{Inner: mac.PFMetric, TopK: 2, name: "topk"}
	alloc := s.Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o == 2 {
			t.Fatalf("RB %d to user outside top-K", b)
		}
	}
	// K=3 admits user 2, who then wins on priority.
	s.TopK = 3
	alloc = s.Allocate(0, users, grid1())
	for b, o := range alloc.RBOwner {
		if o != 2 {
			t.Fatalf("RB %d to %d; top-3 should admit the P1 user", b, o)
		}
	}
}

// Property (the paper's guarantee, §4.3): for every RB, the selected
// user's metric is at least (1-eps) of the maximum metric.
func TestEpsilonGuaranteeProperty(t *testing.T) {
	prop := func(seed uint64, epsRaw uint8) bool {
		r := rng.New(seed)
		eps := float64(epsRaw%100) / 100
		n := 2 + r.Intn(8)
		cqis := make([]phy.CQI, n)
		prios := make([]int, n)
		for i := range cqis {
			cqis[i] = phy.CQI(1 + r.Intn(15))
			prios[i] = r.Intn(4)
		}
		users := testUsers(cqis, prios)
		// Randomise PF denominators too.
		for _, u := range users {
			u.AvgTputBps = 1e5 + r.Float64()*1e7
		}
		s, err := NewInterUser(mac.PFMetric, "PF", eps)
		if err != nil {
			return false
		}
		g := grid1()
		alloc := s.Allocate(0, users, g)
		for b, o := range alloc.RBOwner {
			if o < 0 {
				return false // all users backlogged: every RB must go somewhere
			}
			max := 0.0
			for _, u := range users {
				if m := mac.PFMetric(u, u.CQIForRB(b, g.NumRB), g, 0); m > max {
					max = m
				}
			}
			got := mac.PFMetric(users[o], users[o].CQIForRB(b, g.NumRB), g, 0)
			if got < (1-eps)*max-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInterUserZeroAllocs pins the zero-allocation hot path for the
// OutRAN inter-user scheduler in all three candidate-set modes: the
// ε relaxation, the top-K ablation, and strict MLFQ; with a decision
// hook attached; with no backlogged user; and with every backlogged
// user in a deep fade. After the first TTI grows the scratch
// (AllocsPerRun's warm-up call), steady-state Allocate must not
// allocate. The probe registry is keyed by //outran:allocfree
// annotation (probetest.Run enforces the match).
func TestInterUserZeroAllocs(t *testing.T) {
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*InterUser).Allocate": func(t *testing.T) {
			users := testUsers([]phy.CQI{15, 10, 5, 0, 8}, []int{3, 0, 2, 1, 0})
			faded := testUsers([]phy.CQI{0, 0}, []int{0, 1})
			idle := testUsers([]phy.CQI{15, 10}, []int{0, 0})
			for _, u := range idle {
				u.Buffer = mac.BufferStatus{}
			}
			g := grid1()
			newEps := func() *InterUser {
				s, err := NewInterUser(mac.PFMetric, "PF", 0.2)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			topK, err := NewInterUser(mac.PFMetric, "PF", 0)
			if err != nil {
				t.Fatal(err)
			}
			topK.TopK = 2
			hooked := newEps()
			hooked.OnDecision = func(sim.Time, int, int, int, float64, float64, int, int) {}
			for _, c := range []struct {
				name  string
				s     *InterUser
				users []*mac.User
			}{
				{"epsilon", newEps(), users}, {"topK", topK, users}, {"strictMLFQ", StrictMLFQ(), users},
				{"OnDecision", hooked, users}, {"idle", newEps(), idle}, {"deepFade", newEps(), faded},
			} {
				s, users := c.s, c.users
				allocs := testing.AllocsPerRun(100, func() {
					s.Allocate(0, users, g)
				})
				if allocs != 0 {
					t.Errorf("%s: %.1f allocs/TTI, want 0", c.name, allocs)
				}
			}
		},
	})
}

// TestWalkAuditRoundTrip: the decision counters survive encode ->
// decode -> encode, and the zero InterUser — what a cell without one
// walks in its place — encodes to the same 24 bytes, all zero.
func TestWalkAuditRoundTrip(t *testing.T) {
	users := testUsers([]phy.CQI{15, 14}, []int{3, 0})
	s, err := NewInterUser(mac.PFMetric, "PF", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s.Allocate(0, users, grid1())
	if d, o, _ := s.Audit(); d == 0 || o == 0 {
		t.Fatalf("%d decisions, %d overrides; the round trip would cover nothing", d, o)
	}
	var fresh InterUser
	img := snapshottest.RoundTrip(t, s.WalkAudit, fresh.WalkAudit)
	if d, o, sac := s.Audit(); fresh.decisions != d || fresh.overrides != o || fresh.sacSum != sac {
		t.Fatalf("restored counters %d/%d/%g, want %d/%d/%g", fresh.decisions, fresh.overrides, fresh.sacSum, d, o, sac)
	}
	zero := snapshottest.RoundTrip(t, new(InterUser).WalkAudit, new(InterUser).WalkAudit)
	if len(zero) != len(img) || !bytes.Equal(zero, make([]byte, len(zero))) {
		t.Fatalf("zero InterUser walks to % x, want %d zero bytes", zero, len(img))
	}
}
