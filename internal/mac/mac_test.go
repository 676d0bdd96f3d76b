package mac

import (
	"testing"

	"outran/internal/phy"
	"outran/internal/sim"
)

func grid() phy.Grid { return phy.Grid{Numerology: phy.Mu0, NumRB: 6, CarrierHz: 2e9} }

func user(id int, cqi phy.CQI, avgTput float64, backlog int) *User {
	return &User{
		ID:         UserID(id),
		SubbandCQI: []phy.CQI{cqi},
		AvgTputBps: avgTput,
		Buffer:     BufferStatus{TotalBytes: backlog},
	}
}

func TestBufferStatusTopPriority(t *testing.T) {
	b := BufferStatus{PerPriority: []int{0, 0, 5, 0}}
	if b.TopPriority() != 2 {
		t.Fatalf("top %d", b.TopPriority())
	}
	b = BufferStatus{PerPriority: []int{0, 0, 0, 0}}
	if b.TopPriority() != 4 {
		t.Fatalf("empty queues top %d, want K", b.TopPriority())
	}
	b = BufferStatus{}
	if b.TopPriority() != 0 {
		t.Fatalf("FIFO top %d, want 0", b.TopPriority())
	}
}

func TestCQIForRBSubbandMapping(t *testing.T) {
	u := &User{SubbandCQI: []phy.CQI{3, 7, 11}}
	if u.CQIForRB(0, 9) != 3 || u.CQIForRB(4, 9) != 7 || u.CQIForRB(8, 9) != 11 {
		t.Fatal("subband mapping wrong")
	}
	empty := &User{}
	if empty.CQIForRB(0, 9) != 0 {
		t.Fatal("no CQI should map to 0")
	}

	// The run boundaries partition [0, numRB) and cut exactly where
	// CQIForRB changes subband, for grids the subband count does not
	// divide, more subbands than RBs, and degenerate reports. Each
	// subband reports its own index + 1, so CQIForRB reads back the
	// mapping.
	withSubbands := func(nsb int) *User {
		u := &User{SubbandCQI: make([]phy.CQI, nsb)}
		for sb := range u.SubbandCQI {
			u.SubbandCQI[sb] = phy.CQI(sb + 1)
		}
		return u
	}
	var runs SubbandRuns
	for _, c := range []struct {
		numRB int
		nsbs  []int
	}{
		{9, []int{3}}, {273, []int{9}}, {100, []int{13}}, {25, []int{13}},
		{6, []int{13}}, {25, []int{25}}, {25, []int{0}}, {25, []int{1}},
		{273, []int{9, 13}}, {100, []int{13, 0, 9, 13, 1}}, {25, []int{13, 40}},
		{50, nil},
	} {
		users := make([]*User, len(c.nsbs))
		for i, nsb := range c.nsbs {
			users[i] = withSubbands(nsb)
		}
		bounds := runs.Of(users, c.numRB)
		if bounds[0] != 0 || bounds[len(bounds)-1] != c.numRB {
			t.Fatalf("%d RBs, subbands %v: bounds %v do not span the grid", c.numRB, c.nsbs, bounds)
		}
		for i := 1; i < len(bounds); i++ {
			lo, hi := bounds[i-1], bounds[i]
			if lo >= hi {
				t.Fatalf("%d RBs, subbands %v: bounds %v not ascending", c.numRB, c.nsbs, bounds)
			}
			cut := lo == 0
			for _, u := range users {
				for b := lo; b < hi; b++ {
					if got, want := u.CQIForRB(b, c.numRB), u.CQIForRB(lo, c.numRB); got != want {
						t.Fatalf("%d RBs, %d subbands: CQI %d at RB %d inside run [%d,%d) of CQI %d",
							c.numRB, len(u.SubbandCQI), got, b, lo, hi, want)
					}
					if want := SubbandOfRB(b, len(u.SubbandCQI), c.numRB); int(u.CQIForRB(b, c.numRB)) != want+1 {
						t.Fatalf("%d RBs, %d subbands: CQIForRB(%d) disagrees with SubbandOfRB = %d",
							c.numRB, len(u.SubbandCQI), b, want)
					}
				}
				if lo > 0 && u.CQIForRB(lo, c.numRB) != u.CQIForRB(lo-1, c.numRB) {
					cut = true
				}
			}
			if !cut {
				t.Fatalf("%d RBs, subbands %v: no user changes subband at boundary %d, run not maximal",
					c.numRB, c.nsbs, lo)
			}
		}
	}
	if got := runs.Of([]*User{withSubbands(3)}, 0); len(got) != 0 {
		t.Fatalf("empty grid has runs %v", got)
	}
}

func TestMTSelectsBestChannel(t *testing.T) {
	users := []*User{
		user(0, 5, 1e6, 1000),
		user(1, 15, 1e6, 1000),
		user(2, 10, 1e6, 1000),
	}
	alloc := NewMT().Allocate(0, users, grid())
	for b, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatalf("RB %d to %d, want best-channel user 1", b, o)
		}
	}
}

func TestPFBalancesByAverage(t *testing.T) {
	// Same channel; the user with lower past service wins.
	users := []*User{
		user(0, 10, 8e6, 1000),
		user(1, 10, 1e5, 1000),
	}
	alloc := NewPF().Allocate(0, users, grid())
	for b, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatalf("RB %d to %d, want starved user 1", b, o)
		}
	}
}

func TestPFFrequencySelective(t *testing.T) {
	// Two subbands: each user is better in one; PF should split.
	u0 := &User{ID: 0, SubbandCQI: []phy.CQI{15, 4}, AvgTputBps: 1e6, Buffer: BufferStatus{TotalBytes: 1000}}
	u1 := &User{ID: 1, SubbandCQI: []phy.CQI{4, 15}, AvgTputBps: 1e6, Buffer: BufferStatus{TotalBytes: 1000}}
	alloc := NewPF().Allocate(0, []*User{u0, u1}, grid())
	if alloc.RBOwner[0] != 0 || alloc.RBOwner[5] != 1 {
		t.Fatalf("frequency-selective allocation wrong: %v", alloc.RBOwner)
	}
}

func TestEmptyBuffersSkipped(t *testing.T) {
	users := []*User{user(0, 15, 1e6, 0)}
	alloc := NewPF().Allocate(0, users, grid())
	for _, o := range alloc.RBOwner {
		if o != -1 {
			t.Fatal("allocated to empty-buffer user")
		}
	}
}

// TestAllZeroMetricFallback pins the allocation rule where every
// backlogged user is in a deep fade: CQI 0 drives every metric to 0,
// the RB would carry no bits, and so it stays idle under every
// scheduler rather than going to a fallback user.
func TestAllZeroMetricFallback(t *testing.T) {
	users := []*User{user(0, 0, 1e6, 1000)}
	users[0].Buffer.QoSBytes = 500
	users[0].Buffer.OracleMinRemaining = 100
	for _, s := range []Scheduler{NewPF(), NewMT(), NewRR(), NewPSS(), NewCQA(), NewSRJF()} {
		alloc := s.Allocate(0, users, grid())
		for b, o := range alloc.RBOwner {
			if o != -1 {
				t.Fatalf("%s gave RB %d to %d at CQI 0; it must stay idle", s.Name(), b, o)
			}
		}
	}
}

// TestAllZeroMetricFallbackPicksBest pins the rule's tie-break: a
// faded user never wins a run, however it ranks otherwise, and equal
// metrics go to the lowest index; a user with an empty buffer never
// wins one either.
func TestAllZeroMetricFallbackPicksBest(t *testing.T) {
	// User 0 is faded and starved: PF would favour it on any channel.
	users := []*User{user(0, 0, 1e3, 1000), user(1, 7, 1e6, 1000), user(2, 7, 1e6, 1000)}
	alloc := NewPF().Allocate(0, users, grid())
	for b, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatalf("RB %d to %d, want lowest-index decoding user 1", b, o)
		}
	}
	users[1].Buffer.TotalBytes = 0
	alloc = NewPF().Allocate(0, users, grid())
	for b, o := range alloc.RBOwner {
		if o != 2 {
			t.Fatalf("RB %d to %d, want the backlogged decoding user 2", b, o)
		}
	}
}

func TestRRPrefersLeastRecentlyServed(t *testing.T) {
	users := []*User{
		user(0, 10, 1e6, 1000),
		user(1, 10, 1e6, 1000),
	}
	users[0].LastServed = 100 * sim.Millisecond
	users[1].LastServed = 5 * sim.Millisecond
	alloc := NewRR().Allocate(200*sim.Millisecond, users, grid())
	for _, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatal("RR did not pick least recently served")
		}
	}
}

func TestSRJFPicksSmallestRemaining(t *testing.T) {
	users := []*User{
		user(0, 15, 1e6, 1000),
		user(1, 2, 1e6, 1000), // terrible channel, shortest flow
		user(2, 10, 1e6, 1000),
	}
	users[0].Buffer.OracleMinRemaining = 100000
	users[1].Buffer.OracleMinRemaining = 500
	users[2].Buffer.OracleMinRemaining = 30000
	alloc := NewSRJF().Allocate(0, users, grid())
	for b, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatalf("RB %d to %d: SRJF must ignore channel and pick user 1", b, o)
		}
	}
}

func TestSRJFUnknownSizesLast(t *testing.T) {
	users := []*User{
		user(0, 10, 1e6, 1000),
		user(1, 10, 1e6, 1000),
	}
	users[0].Buffer.OracleMinRemaining = -1 // unknown
	users[1].Buffer.OracleMinRemaining = 1 << 40
	alloc := NewSRJF().Allocate(0, users, grid())
	for _, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatal("known size should beat unknown")
		}
	}
}

func TestPSSPrioritySetDominates(t *testing.T) {
	users := []*User{
		user(0, 15, 1e5, 1000), // best channel + starved, but no QoS
		user(1, 8, 1e7, 1000),  // QoS traffic queued
	}
	users[1].Buffer.QoSBytes = 500
	alloc := NewPSS().Allocate(0, users, grid())
	for b, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatalf("RB %d to %d: priority set must dominate", b, o)
		}
	}
}

func TestPSSFallsBackToPF(t *testing.T) {
	users := []*User{
		user(0, 10, 1e7, 1000),
		user(1, 10, 1e5, 1000),
	}
	alloc := NewPSS().Allocate(0, users, grid())
	for _, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatal("PSS without QoS traffic should behave like PF")
		}
	}
}

func TestCQAWeightGrowsWithHOLDelay(t *testing.T) {
	u := user(0, 10, 1e6, 1000)
	u.Buffer.QoSBytes = 500
	u.Buffer.QoSDelayBudget = 50 * sim.Millisecond
	u.Buffer.QoSHOLArrival = 0
	early := cqaWeight(u, 5*sim.Millisecond)
	late := cqaWeight(u, 45*sim.Millisecond)
	if late <= early {
		t.Fatalf("CQA weight did not grow: %g vs %g", early, late)
	}
	if cqaWeight(user(1, 10, 1e6, 100), 0) != 1 {
		t.Fatal("no-QoS weight should be 1")
	}
}

func TestCQAPreemptsNearDeadline(t *testing.T) {
	users := []*User{
		user(0, 15, 1e6, 1000),
		user(1, 12, 1e6, 1000),
	}
	users[1].Buffer.QoSBytes = 500
	users[1].Buffer.QoSDelayBudget = 50 * sim.Millisecond
	users[1].Buffer.QoSHOLArrival = 0
	alloc := NewCQA().Allocate(49*sim.Millisecond, users, grid())
	for _, o := range alloc.RBOwner {
		if o != 1 {
			t.Fatal("CQA did not pre-empt near the delay budget")
		}
	}
}

func TestUpdateAvgTputEWMA(t *testing.T) {
	u := user(0, 10, 0, 0)
	tti := sim.Millisecond
	tf := 100 * sim.Millisecond
	u.UpdateAvgTput(1000, tti, tf) // inst = 1 Mbps, beta = 0.01
	if u.AvgTputBps != 1e4 {
		t.Fatalf("EWMA %g, want 1e4", u.AvgTputBps)
	}
	for i := 0; i < 5000; i++ {
		u.UpdateAvgTput(1000, tti, tf)
	}
	if u.AvgTputBps < 0.95e6 || u.AvgTputBps > 1.05e6 {
		t.Fatalf("EWMA did not converge to 1 Mbps: %g", u.AvgTputBps)
	}
}

func TestUpdateAvgTputDecays(t *testing.T) {
	u := user(0, 10, 1e6, 0)
	for i := 0; i < 2000; i++ {
		u.UpdateAvgTput(0, sim.Millisecond, 100*sim.Millisecond)
	}
	if u.AvgTputBps > 1e3 {
		t.Fatalf("idle EWMA did not decay: %g", u.AvgTputBps)
	}
}

func TestAllocationHelpers(t *testing.T) {
	a := NewAllocation(4)
	for _, o := range a.RBOwner {
		if o != -1 {
			t.Fatal("fresh allocation not empty")
		}
	}
	a.RBOwner[0], a.RBOwner[2] = 1, 1
	if a.Allocated() != 2 {
		t.Fatalf("Allocated %d, want 2", a.Allocated())
	}
}

func TestSchedulerNames(t *testing.T) {
	for _, c := range []struct {
		s    Scheduler
		name string
	}{
		{NewPF(), "PF"}, {NewMT(), "MT"}, {NewRR(), "RR"},
		{NewSRJF(), "SRJF"}, {NewPSS(), "PSS"}, {NewCQA(), "CQA"},
	} {
		if c.s.Name() != c.name {
			t.Errorf("name %q, want %q", c.s.Name(), c.name)
		}
	}
}
