package mac

import (
	"testing"

	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

// The differential oracle: frozen copies of the per-RB allocators as
// they stood before the schedulers walked subband runs, under the idle
// rule (an RB no backlogged user scores above 0 stays unassigned), and
// of SRJF as it stood before it scored through Owner. They evaluate
// every metric on every RB through their own RB→subband mapping and
// share no code with the run walk, so an error in the run boundaries,
// in SubbandOfRB or in what a run hoists shows as a differing RBOwner.
// Do not "modernise" them.

type perRBMetric func(u *User, rb int, grid phy.Grid, now sim.Time) float64

func perRBCQI(u *User, rb, numRB int) phy.CQI {
	if len(u.SubbandCQI) == 0 {
		return 0
	}
	sb := rb * len(u.SubbandCQI) / numRB
	if sb >= len(u.SubbandCQI) {
		sb = len(u.SubbandCQI) - 1
	}
	return u.SubbandCQI[sb]
}

func perRBRate(u *User, rb int, grid phy.Grid) float64 {
	return phy.RatePerRB(perRBCQI(u, rb, grid.NumRB), grid)
}

func perRBPF(u *User, rb int, grid phy.Grid, now sim.Time) float64 {
	return perRBRate(u, rb, grid) / pfDenominator(u)
}

func perRBMT(u *User, rb int, grid phy.Grid, now sim.Time) float64 {
	return perRBRate(u, rb, grid)
}

func perRBRR(u *User, rb int, grid phy.Grid, now sim.Time) float64 {
	if perRBCQI(u, rb, grid.NumRB) == 0 {
		return 0
	}
	return 1 + float64(now-u.LastServed)
}

func perRBCQA(u *User, rb int, grid phy.Grid, now sim.Time) float64 {
	return perRBPF(u, rb, grid, now) * cqaWeight(u, now)
}

func perRBMetricAllocate(metric perRBMetric, now sim.Time, users []*User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	for b := 0; b < grid.NumRB; b++ {
		best := -1
		bestM := 0.0
		for ui, u := range users {
			if !u.Buffer.Backlogged() {
				continue
			}
			m := metric(u, b, grid, now)
			if m <= 0 {
				continue
			}
			if best == -1 || m > bestM {
				best, bestM = ui, m
			}
		}
		owner[b] = best
	}
	return owner
}

func perRBPSSAllocate(now sim.Time, users []*User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	for b := 0; b < grid.NumRB; b++ {
		best, bestM := -1, 0.0
		bestQoS := false
		for ui, u := range users {
			if !u.Buffer.Backlogged() {
				continue
			}
			m := perRBPF(u, b, grid, now)
			if m <= 0 {
				continue
			}
			qos := u.Buffer.QoSBytes > 0
			if qos && !bestQoS {
				best, bestM, bestQoS = ui, m, true
				continue
			}
			if qos == bestQoS && (best == -1 || m > bestM) {
				best, bestM = ui, m
			}
		}
		owner[b] = best
	}
	return owner
}

func perRBSRJFAllocate(now sim.Time, users []*User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	best := -1
	var bestRem int64
	for ui, u := range users {
		if !u.Buffer.Backlogged() {
			continue
		}
		rem := u.Buffer.OracleMinRemaining
		if rem < 0 {
			rem = 1 << 62
		}
		if best == -1 || rem < bestRem {
			best, bestRem = ui, rem
		}
	}
	for b := range owner {
		owner[b] = -1
		if best != -1 && perRBCQI(users[best], b, grid.NumRB) != 0 {
			owner[b] = best
		}
	}
	return owner
}

// oracleCase draws one scheduling problem: a grid from the shipped
// widths plus a narrow one, and users whose subband counts are mixed in
// a fifth of the cases (0, 1, fewer or more than the grid has RBs),
// with CQI-0 subbands, idle users, QoS traffic, known and unknown
// remaining flow sizes, and now and then every backlogged user in a
// deep fade (every run idle).
func oracleCase(r *rng.Source) (sim.Time, []*User, phy.Grid) {
	grid := phy.Grid{Numerology: phy.Mu0, CarrierHz: 2.68e9}
	grid.NumRB = []int{6, 25, 50, 100, 273}[r.Intn(5)]
	if grid.NumRB == 273 {
		grid.Numerology = phy.Mu1
	}
	now := sim.Time(r.Intn(2000)) * sim.Millisecond
	shared := []int{9, 13}[r.Intn(2)]
	mixed := r.Intn(5) == 0
	allFaded := r.Intn(25) == 0
	users := make([]*User, 1+r.Intn(12))
	for i := range users {
		nsb := shared
		if mixed {
			nsb = []int{0, 1, 3, 9, 13, grid.NumRB, grid.NumRB + 7}[r.Intn(7)]
		}
		u := &User{
			ID:         UserID(i),
			SubbandCQI: make([]phy.CQI, nsb),
			AvgTputBps: r.Float64() * 2e7,
			LastServed: sim.Time(r.Intn(2000)) * sim.Millisecond,
		}
		if r.Intn(8) == 0 {
			u.AvgTputBps = 0 // below the PF bootstrap floor
		}
		for sb := range u.SubbandCQI {
			if !allFaded && r.Intn(6) != 0 {
				u.SubbandCQI[sb] = phy.CQI(1 + r.Intn(15))
			}
		}
		if r.Intn(4) != 0 {
			u.Buffer.TotalBytes = 1 + r.Intn(1<<16)
		}
		if r.Intn(3) == 0 {
			u.Buffer.QoSBytes = 1 + r.Intn(4000)
			u.Buffer.QoSDelayBudget = 50 * sim.Millisecond
			u.Buffer.QoSHOLArrival = now - sim.Time(r.Intn(120))*sim.Millisecond
		}
		u.Buffer.OracleMinRemaining = int64(r.Intn(5000)) - 1 // -1: unknown
		users[i] = u
	}
	return now, users, grid
}

// idleHeavyCase draws a 40-user population of which only `backlogged`
// users have data, as at the paper's operating points. The backlogged
// users share one subband count; the idle ones report others (none,
// one, a coarser or a finer split), so the runs are cut finer than any
// backlogged user needs.
func idleHeavyCase(r *rng.Source, backlogged int) (sim.Time, []*User, phy.Grid) {
	now, users, grid := oracleCase(r)
	for len(users) < 40 {
		users = append(users, &User{ID: UserID(len(users)), AvgTputBps: r.Float64() * 2e7})
	}
	for _, u := range users {
		u.Buffer.TotalBytes = 0
		u.SubbandCQI = make([]phy.CQI, []int{0, 1, 9, grid.NumRB + 7}[r.Intn(4)])
	}
	order := make([]int, len(users))
	for i := range order {
		order[i] = i
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, ui := range order[:backlogged] {
		u := users[ui]
		u.Buffer.TotalBytes = 1 + r.Intn(1<<16)
		u.SubbandCQI = make([]phy.CQI, 13)
	}
	for _, u := range users {
		for sb := range u.SubbandCQI {
			u.SubbandCQI[sb] = phy.CQI(r.Intn(16))
		}
	}
	return now, users, grid
}

// resizeSubbands gives one random user a new subband count, keeping
// the population and its backlog: the memoised runs must be recut.
func resizeSubbands(r *rng.Source, users []*User, numRB int) {
	u := users[r.Intn(len(users))]
	u.SubbandCQI = make([]phy.CQI, []int{0, 1, 3, 9, 13, numRB, numRB + 7}[r.Intn(7)])
	for sb := range u.SubbandCQI {
		u.SubbandCQI[sb] = phy.CQI(1 + r.Intn(15))
	}
}

// TestRunWalkMatchesPerRBOracle drives every run-walking scheduler and
// its frozen per-RB twin over the same random problems. One scheduler
// instance serves all cases, so its scratch and memoised runs are
// reused across changing grid widths and populations as a cell's
// would be. After the general cases come idle-heavy ones: 0, 1 or 2
// of 40 users backlogged, each population then re-allocated with one
// user's subband count changed between calls.
func TestRunWalkMatchesPerRBOracle(t *testing.T) {
	metricScheds := []struct {
		s      Scheduler
		oracle perRBMetric
	}{
		{NewPF(), perRBPF}, {NewMT(), perRBMT}, {NewRR(), perRBRR}, {NewCQA(), perRBCQA},
	}
	pss, srjf := NewPSS(), NewSRJF()
	r := rng.New(20260928)
	checkCase := func(c int, now sim.Time, users []*User, grid phy.Grid) {
		t.Helper()
		check := func(name string, got Allocation, want []int) {
			t.Helper()
			if len(got.RBOwner) != len(want) {
				t.Fatalf("case %d %s: %d RBs, want %d", c, name, len(got.RBOwner), len(want))
			}
			for b := range want {
				if got.RBOwner[b] != want[b] {
					t.Fatalf("case %d %s (%d users, %d RBs): RB %d to %d, per-RB oracle says %d",
						c, name, len(users), grid.NumRB, b, got.RBOwner[b], want[b])
				}
			}
		}
		for _, m := range metricScheds {
			check(m.s.Name(), m.s.Allocate(now, users, grid), perRBMetricAllocate(m.oracle, now, users, grid))
		}
		check("PSS", pss.Allocate(now, users, grid), perRBPSSAllocate(now, users, grid))
		check("SRJF", srjf.Allocate(now, users, grid), perRBSRJFAllocate(now, users, grid))
	}
	for c := 0; c < 2500; c++ {
		now, users, grid := oracleCase(r)
		checkCase(c, now, users, grid)
	}
	for c := 2500; c < 3100; c++ {
		now, users, grid := idleHeavyCase(r, c%3)
		checkCase(c, now, users, grid)
		for k := 0; k < 3; k++ {
			resizeSubbands(r, users, grid.NumRB)
			checkCase(c, now, users, grid)
		}
	}
}
