package core

import (
	"slices"
	"testing"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

// eightSchedulers returns one of each scheduler a cell can run, in
// ran.SchedulerKind order: PF, MT, RR, SRJF, PSS, CQA, OutRAN (PF inner,
// the paper's ε = 0.2) and StrictMLFQ.
func eightSchedulers(t testing.TB) []mac.Scheduler {
	t.Helper()
	outran, err := NewInterUser(mac.PFMetric, "PF", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return []mac.Scheduler{mac.NewPF(), mac.NewMT(), mac.NewRR(), mac.NewSRJF(),
		mac.NewPSS(), mac.NewCQA(), outran, StrictMLFQ()}
}

// checkOwnership asserts the allocation rule on one allocation through
// the test's own RB→subband mapping (perRBCQI): every owned RB's owner
// is backlogged and reports CQI > 0 on it, and, unless the scheduler is
// SRJF (which serves one user only), an RB stays idle only when no
// backlogged user reports CQI > 0 on it.
func checkOwnership(t testing.TB, s mac.Scheduler, users []*mac.User, grid phy.Grid, owner []int) {
	t.Helper()
	if len(owner) != grid.NumRB {
		t.Fatalf("%s: %d RBs, want %d", s.Name(), len(owner), grid.NumRB)
	}
	for b, o := range owner {
		if o >= 0 {
			if o >= len(users) || !users[o].Buffer.Backlogged() || perRBCQI(users[o], b, grid.NumRB) == 0 {
				t.Fatalf("%s: RB %d of %d owned by user %d, which is idle or reports CQI 0 there",
					s.Name(), b, grid.NumRB, o)
			}
			continue
		}
		if s.Name() == "SRJF" {
			continue
		}
		for ui, u := range users {
			if u.Buffer.Backlogged() && perRBCQI(u, b, grid.NumRB) > 0 {
				t.Fatalf("%s: RB %d of %d idle although backlogged user %d decodes it at CQI %d",
					s.Name(), b, grid.NumRB, ui, perRBCQI(u, b, grid.NumRB))
			}
		}
	}
}

// TestNoRBOwnedAtCQIZero runs all eight schedulers over random
// populations — CQI-0 subbands, idle users, mixed subband counts, every
// backlogged user faded now and then, known and unknown remaining flow
// sizes, QoS traffic — and checks the allocation rule on every RB.
func TestNoRBOwnedAtCQIZero(t *testing.T) {
	type problem struct {
		now   sim.Time
		users []*mac.User
		grid  phy.Grid
	}
	r := rng.New(20261017)
	problems := make([]problem, 3000)
	for c := range problems {
		now, users, grid := oracleCase(r)
		if c%5 == 4 {
			now, users, grid = idleHeavyCase(r, 1+c%3)
		}
		for _, u := range users {
			u.LastServed = min(u.LastServed, now) // a cell never serves in the future
			u.Buffer.OracleMinRemaining = int64(r.Intn(5000)) - 1
		}
		problems[c] = problem{now, users, grid}
	}
	for _, s := range eightSchedulers(t) {
		t.Run(s.Name(), func(t *testing.T) {
			for _, p := range problems {
				checkOwnership(t, s, p.users, p.grid, s.Allocate(p.now, p.users, p.grid).RBOwner)
			}
		})
	}
}

// fuzzCase decodes one scheduling problem from arbitrary bytes: a grid
// of 1-128 RBs, the time, 1-16 users with 0-23 subbands each (so often
// more subbands than RBs), CQIs, PF averages, last-served ages, backlog,
// MLFQ level, QoS bytes and remaining flow size. Exhausted input reads
// as zeros.
func fuzzCase(data []byte) (sim.Time, []*mac.User, phy.Grid) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	grid := phy.Grid{Numerology: phy.Mu0, NumRB: 1 + next()%128, CarrierHz: 2.68e9}
	now := sim.Time(next()) * sim.Millisecond
	users := make([]*mac.User, 1+next()%16)
	for i := range users {
		u := &mac.User{
			ID:         mac.UserID(i),
			SubbandCQI: make([]phy.CQI, next()%24),
			AvgTputBps: float64(next()) * 1e5,
			LastServed: now - sim.Time(next())*sim.Millisecond,
		}
		flags, backlog, qos, holAge := next(), next(), next(), next()
		if flags&1 != 0 {
			u.Buffer.TotalBytes = 1 + 256*backlog
			u.Buffer.PerPriority = make([]int, DefaultQueues)
			u.Buffer.PerPriority[flags>>1%DefaultQueues] = u.Buffer.TotalBytes
		}
		if flags&8 != 0 {
			u.Buffer.QoSBytes = 1 + qos
			u.Buffer.QoSDelayBudget = 50 * sim.Millisecond
			u.Buffer.QoSHOLArrival = now - sim.Time(holAge)*sim.Millisecond
		}
		u.Buffer.OracleMinRemaining = int64(next()) - 1
		for sb := range u.SubbandCQI {
			u.SubbandCQI[sb] = phy.CQI(next() % 16)
		}
		users[i] = u
	}
	return now, users, grid
}

// fuzzUser encodes one user for fuzzCase: nsb subbands cycling through
// cqis, backlogged (at MLFQ level 0) when flags&1, with QoS bytes when
// flags&8.
func fuzzUser(nsb, flags byte, cqis ...byte) []byte {
	b := []byte{nsb, 10, 5, flags, 40, 200, 30, 7}
	for sb := 0; sb < int(nsb); sb++ {
		b = append(b, cqis[sb%len(cqis)])
	}
	return b
}

// FuzzAllocate checks the allocation rule on arbitrary populations for
// all eight schedulers, and the identities it makes hold by
// construction: PSS is PF when no user has QoS bytes, OutRAN at ε = 0
// is PF, and StrictMLFQ is OutRAN at ε = 1.
func FuzzAllocate(f *testing.F) {
	seed := func(numRB, users byte, us ...[]byte) []byte {
		return slices.Concat(append([][]byte{{numRB - 1, 100, users - 1}}, us...)...)
	}
	f.Add(seed(25, 3, fuzzUser(13, 1, 0), fuzzUser(13, 9, 0), fuzzUser(13, 1, 0)))                 // all faded
	f.Add(seed(25, 1, fuzzUser(13, 1, 9, 0, 15)))                                                  // single user
	f.Add(seed(6, 2, fuzzUser(13, 1, 4, 0, 11), fuzzUser(23, 3, 0, 7)))                            // nsb > numRB
	f.Add(seed(50, 4, fuzzUser(13, 1, 5), fuzzUser(0, 1), fuzzUser(9, 0, 12), fuzzUser(1, 13, 3))) // mixed counts
	f.Fuzz(func(t *testing.T, data []byte) {
		now, users, grid := fuzzCase(data)
		for _, s := range eightSchedulers(t) {
			checkOwnership(t, s, users, grid, s.Allocate(now, users, grid).RBOwner)
		}
		pf := mac.NewPF().Allocate(now, users, grid).RBOwner
		if !slices.ContainsFunc(users, func(u *mac.User) bool { return u.Buffer.QoSBytes > 0 }) {
			if pss := mac.NewPSS().Allocate(now, users, grid).RBOwner; !slices.Equal(pss, pf) {
				t.Fatalf("PSS without QoS traffic allocates %v, PF %v", pss, pf)
			}
		}
		eps0, _ := NewInterUser(mac.PFMetric, "PF", 0)
		if got := eps0.Allocate(now, users, grid).RBOwner; !slices.Equal(got, pf) {
			t.Fatalf("OutRAN at ε = 0 allocates %v, PF %v", got, pf)
		}
		eps1, _ := NewInterUser(mac.PFMetric, "PF", 1)
		want := eps1.Allocate(now, users, grid).RBOwner
		if got := StrictMLFQ().Allocate(now, users, grid).RBOwner; !slices.Equal(got, want) {
			t.Fatalf("StrictMLFQ allocates %v, OutRAN at ε = 1 %v", got, want)
		}
	})
}
