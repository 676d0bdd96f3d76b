package core

import (
	"fmt"
	"math"
	"testing"

	"outran/internal/mac"
	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

// The differential oracle (ROADMAP item 5b): a frozen copy of
// InterUser.Allocate as it stood before it walked subband runs. It
// decides every RB on its own — metric vector, legacy best, relaxed
// candidate set, re-selection, audit, hook — through its own
// RB→subband mapping, and shares no code with the run walk. Do not
// "modernise" it.

type perRBMetric func(u *mac.User, rb int, grid phy.Grid, now sim.Time) float64

func perRBCQI(u *mac.User, rb, numRB int) phy.CQI {
	if len(u.SubbandCQI) == 0 {
		return 0
	}
	sb := rb * len(u.SubbandCQI) / numRB
	if sb >= len(u.SubbandCQI) {
		sb = len(u.SubbandCQI) - 1
	}
	return u.SubbandCQI[sb]
}

func perRBRate(u *mac.User, rb int, grid phy.Grid) float64 {
	return phy.RatePerRB(perRBCQI(u, rb, grid.NumRB), grid)
}

func perRBPF(u *mac.User, rb int, grid phy.Grid, now sim.Time) float64 {
	return perRBRate(u, rb, grid) / math.Max(u.AvgTputBps, 1e3)
}

func perRBMT(u *mac.User, rb int, grid phy.Grid, now sim.Time) float64 {
	return perRBRate(u, rb, grid)
}

func perRBRR(u *mac.User, rb int, grid phy.Grid, now sim.Time) float64 {
	if perRBCQI(u, rb, grid.NumRB) == 0 {
		return 0
	}
	return 1 + float64(now-u.LastServed)
}

// qosWeight stands in for mac's unexported CQA weight: a factor that
// depends on the user's buffer report and on the time, not on the RB.
func qosWeight(u *mac.User, now sim.Time) float64 {
	if u.Buffer.QoSBytes == 0 || u.Buffer.QoSDelayBudget <= 0 {
		return 1
	}
	frac := float64(now-u.Buffer.QoSHOLArrival) / float64(u.Buffer.QoSDelayBudget)
	return math.Exp2(2 * math.Min(math.Max(frac, 0), 6))
}

func perRBCQA(u *mac.User, rb int, grid phy.Grid, now sim.Time) float64 {
	return perRBPF(u, rb, grid, now) * qosWeight(u, now)
}

func runCQA(u *mac.User, cqi phy.CQI, grid phy.Grid, now sim.Time) float64 {
	return mac.PFMetric(u, cqi, grid, now) * qosWeight(u, now)
}

type perRBInterUser struct {
	inner      perRBMetric
	epsilon    float64
	topK       int
	onDecision DecisionFunc

	decisions uint64
	overrides uint64
	sacSum    float64
}

func (s *perRBInterUser) allocate(now sim.Time, users []*mac.User, grid phy.Grid) []int {
	owner := make([]int, grid.NumRB)
	metrics := make([]float64, len(users))
	for b := 0; b < grid.NumRB; b++ {
		owner[b] = -1
		best := -1
		mMax := 0.0
		for ui, u := range users {
			metrics[ui] = 0
			if !u.Buffer.Backlogged() {
				continue
			}
			m := s.inner(u, b, grid, now)
			metrics[ui] = m
			if m <= 0 {
				continue
			}
			if best == -1 || m > mMax {
				best, mMax = ui, m
			}
		}
		if best == -1 {
			continue
		}
		sel := best
		selPrio := users[best].Buffer.TopPriority()
		selMetric := mMax
		candidates := 1
		if s.topK > 0 {
			sel, selPrio, selMetric = s.topKSelect(users, metrics, best)
			candidates = s.topK
			if candidates > len(users) {
				candidates = len(users)
			}
		} else if s.epsilon > 0 {
			candidates = 0
			floor := (1 - s.epsilon) * mMax
			for ui, u := range users {
				if metrics[ui] <= 0 || metrics[ui] < floor {
					continue
				}
				candidates++
				p := u.Buffer.TopPriority()
				if p < selPrio || (p == selPrio && metrics[ui] > selMetric) {
					sel, selPrio, selMetric = ui, p, metrics[ui]
				}
			}
		}
		owner[b] = sel
		s.decisions++
		if sel != best {
			s.overrides++
			s.sacSum += (mMax - selMetric) / mMax
		}
		if s.onDecision != nil {
			s.onDecision(now, b, best, sel, mMax, selMetric, selPrio, candidates)
		}
	}
	return owner
}

func (s *perRBInterUser) topKSelect(users []*mac.User, metrics []float64, best int) (int, int, float64) {
	var cands []topKCand
	for ui := range users {
		if metrics[ui] > 0 {
			cands = append(cands, topKCand{ui, metrics[ui]})
		}
	}
	k := s.topK
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
	selPrio := users[best].Buffer.TopPriority()
	selMetric := metrics[best]
	for i := 0; i < k; i++ {
		u := users[cands[i].ui]
		p := u.Buffer.TopPriority()
		if p < selPrio || (p == selPrio && cands[i].m > selMetric) {
			sel, selPrio, selMetric = cands[i].ui, p, cands[i].m
		}
	}
	return sel, selPrio, selMetric
}

// decisionRecord is one OnDecision call, floats by bit pattern.
type decisionRecord struct {
	now              sim.Time
	rb, best, sel    int
	bestM, selM      uint64
	level, candidate int
}

func recordInto(dst *[]decisionRecord) DecisionFunc {
	return func(now sim.Time, rb, best, sel int, bestM, selM float64, selLevel, candidates int) {
		*dst = append(*dst, decisionRecord{now, rb, best, sel,
			math.Float64bits(bestM), math.Float64bits(selM), selLevel, candidates})
	}
}

// oracleCase draws one scheduling problem: a grid from the shipped
// widths plus a narrow one, and users whose subband counts are mixed in
// a fifth of the cases (0, 1, fewer or more than the grid has RBs),
// with CQI-0 subbands, idle users, spread MLFQ levels, and now and then
// every backlogged user in a deep fade, which leaves RBs unallocated.
func oracleCase(r *rng.Source) (sim.Time, []*mac.User, phy.Grid) {
	grid := phy.Grid{Numerology: phy.Mu0, CarrierHz: 2.68e9}
	grid.NumRB = []int{6, 25, 50, 100, 273}[r.Intn(5)]
	if grid.NumRB == 273 {
		grid.Numerology = phy.Mu1
	}
	now := sim.Time(r.Intn(2000)) * sim.Millisecond
	shared := []int{9, 13}[r.Intn(2)]
	mixed := r.Intn(5) == 0
	allFaded := r.Intn(25) == 0
	users := make([]*mac.User, 1+r.Intn(12))
	for i := range users {
		nsb := shared
		if mixed {
			nsb = []int{0, 1, 3, 9, 13, grid.NumRB, grid.NumRB + 7}[r.Intn(7)]
		}
		u := &mac.User{
			ID:         mac.UserID(i),
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
			u.Buffer.PerPriority = make([]int, 4)
			u.Buffer.PerPriority[r.Intn(4)] = u.Buffer.TotalBytes
		}
		if r.Intn(3) == 0 {
			u.Buffer.QoSBytes = 1 + r.Intn(4000)
			u.Buffer.QoSDelayBudget = 50 * sim.Millisecond
			u.Buffer.QoSHOLArrival = now - sim.Time(r.Intn(120))*sim.Millisecond
		}
		users[i] = u
	}
	return now, users, grid
}

// idleHeavyCase draws a 40-user population of which only `backlogged`
// users have data, as at the paper's operating points. The backlogged
// users share one subband count and spread over the MLFQ levels; the
// idle ones report other counts (none, one, a coarser or a finer
// split), so the runs are cut finer than any backlogged user needs.
func idleHeavyCase(r *rng.Source, backlogged int) (sim.Time, []*mac.User, phy.Grid) {
	now, users, grid := oracleCase(r)
	for len(users) < 40 {
		users = append(users, &mac.User{ID: mac.UserID(len(users)), AvgTputBps: r.Float64() * 2e7})
	}
	for _, u := range users {
		u.Buffer.TotalBytes, u.Buffer.PerPriority = 0, nil
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
		u.Buffer.PerPriority = make([]int, 4)
		u.Buffer.PerPriority[r.Intn(4)] = u.Buffer.TotalBytes
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
func resizeSubbands(r *rng.Source, users []*mac.User, numRB int) {
	u := users[r.Intn(len(users))]
	u.SubbandCQI = make([]phy.CQI, []int{0, 1, 3, 9, 13, numRB, numRB + 7}[r.Intn(7)])
	for sb := range u.SubbandCQI {
		u.SubbandCQI[sb] = phy.CQI(1 + r.Intn(15))
	}
}

// TestRunWalkMatchesPerRBOracle drives InterUser and its frozen per-RB
// twin over the same random problems for every candidate-set mode and
// metric, and demands the same RBOwner, the same ordered OnDecision
// stream, and the same audit with the sacrifice sum compared by its bit
// pattern. One scheduler pair per configuration serves all cases, so
// the audit accumulates over thousands of additions and the scratch and
// memoised runs are reused across changing grid widths and populations.
// After the general cases come idle-heavy ones: 0, 1 or 2 of 40 users
// backlogged, each population then re-allocated with one user's subband
// count changed between calls.
func TestRunWalkMatchesPerRBOracle(t *testing.T) {
	metrics := []struct {
		name   string
		run    mac.MetricFunc
		oracle perRBMetric
	}{
		{"PF", mac.PFMetric, perRBPF}, {"MT", mac.MTMetric, perRBMT},
		{"RR", mac.NewRR().Metric, perRBRR}, {"CQA", runCQA, perRBCQA},
	}
	type pair struct {
		name      string
		run       *InterUser
		oracle    *perRBInterUser
		got, want []decisionRecord
	}
	var pairs []*pair
	for _, m := range metrics {
		for _, mode := range []struct {
			eps  float64
			topK int
		}{{0, 0}, {0.2, 0}, {1, 0}, {0.2, 2}, {0, 100}} {
			run, err := NewInterUser(m.run, m.name, mode.eps)
			if err != nil {
				t.Fatal(err)
			}
			run.TopK = mode.topK
			p := &pair{name: run.Name(), run: run,
				oracle: &perRBInterUser{inner: m.oracle, epsilon: mode.eps, topK: mode.topK}}
			if mode.topK > 0 {
				p.name = fmt.Sprintf("%s/topK=%d", p.name, mode.topK)
			}
			p.run.OnDecision = recordInto(&p.got)
			p.oracle.onDecision = recordInto(&p.want)
			pairs = append(pairs, p)
		}
	}
	r := rng.New(20260928)
	checkCase := func(c int, now sim.Time, users []*mac.User, grid phy.Grid) {
		t.Helper()
		for _, p := range pairs {
			p.got, p.want = p.got[:0], p.want[:0]
			got := p.run.Allocate(now, users, grid).RBOwner
			want := p.oracle.allocate(now, users, grid)
			if len(got) != len(want) {
				t.Fatalf("case %d %s: %d RBs, want %d", c, p.name, len(got), len(want))
			}
			for b := range want {
				if got[b] != want[b] {
					t.Fatalf("case %d %s (%d users, %d RBs): RB %d to %d, per-RB oracle says %d",
						c, p.name, len(users), grid.NumRB, b, got[b], want[b])
				}
			}
			if len(p.got) != len(p.want) {
				t.Fatalf("case %d %s: %d decision records, per-RB oracle emits %d", c, p.name, len(p.got), len(p.want))
			}
			for i := range p.want {
				if p.got[i] != p.want[i] {
					t.Fatalf("case %d %s: decision record %d is %+v, per-RB oracle emits %+v",
						c, p.name, i, p.got[i], p.want[i])
				}
			}
			d, o, sac := p.run.Audit()
			if d != p.oracle.decisions || o != p.oracle.overrides ||
				math.Float64bits(sac) != math.Float64bits(p.oracle.sacSum) {
				t.Fatalf("case %d %s: audit (%d, %d, %#x), per-RB oracle has (%d, %d, %#x)", c, p.name,
					d, o, math.Float64bits(sac), p.oracle.decisions, p.oracle.overrides, math.Float64bits(p.oracle.sacSum))
			}
		}
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
	for _, p := range pairs {
		d, o, _ := p.run.Audit()
		if d == 0 {
			t.Errorf("%s: no decision in any case", p.name)
		}
		if relaxes := p.run.Epsilon > 0 || p.run.TopK > 0; relaxes && o == 0 {
			t.Errorf("%s: no override in any case; the re-selection is not exercised", p.name)
		}
	}
}
