package workload

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

func TestLTECellularMatchesPaperAnchors(t *testing.T) {
	d := LTECellular()
	// Fig 2a: 90% of flows are smaller than 35.9 KB.
	if p := d.Prob(35.9 * KB); math.Abs(p-0.90) > 0.005 {
		t.Fatalf("P(size <= 35.9KB) = %g, want 0.90", p)
	}
	// Heavy tail: mean far above median.
	if d.Mean() < 10*d.Quantile(0.5) {
		t.Fatalf("mean %g vs median %g: not heavy-tailed", d.Mean(), d.Quantile(0.5))
	}
}

func TestWebSearchMean(t *testing.T) {
	d := WebSearch()
	// Paper: background websearch traffic has ~1.92 MB average size.
	mean := d.Mean()
	if mean < 1.5*MB || mean > 2.4*MB {
		t.Fatalf("websearch mean %g MB, want ~1.92 MB", mean/MB)
	}
}

func TestMirageSmallFlowMass(t *testing.T) {
	d := Mirage()
	if d.Prob(1*KB) < 0.3 {
		t.Fatalf("MIRAGE small-flow mass %g too low", d.Prob(1*KB))
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"lte", "lte-cellular", "mirage", "mobile-app", "websearch", "web-search"} {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatal("bogus name resolved")
	}
}

// TestPresetsSharedAcrossGoroutines: every caller of a preset gets the
// one shared table, and concurrent first use and concurrent sampling —
// what the cells of a parallel deployment do — are race-free (run under
// -race in CI).
func TestPresetsSharedAcrossGoroutines(t *testing.T) {
	names := []string{"lte", "mirage", "websearch"}
	const workers = 8
	got := make([][]*rng.EmpiricalCDF, workers)
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(5) // same stream everywhere: same draws if the table is read-only
			for _, n := range names {
				d, _ := ByName(n)
				got[w] = append(got[w], d)
				for i := 0; i < 200; i++ {
					sums[w] += d.Sample(r)
				}
				sums[w] += d.Mean()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i, n := range names {
			if got[w][i] != got[0][i] {
				t.Errorf("%s: goroutine %d got a different table than goroutine 0", n, w)
			}
		}
		if sums[w] != sums[0] {
			t.Errorf("goroutine %d drew %v from the shared tables, goroutine 0 drew %v", w, sums[w], sums[0])
		}
	}
	if LTECellular() != got[0][0] || Mirage() != got[0][1] || WebSearch() != got[0][2] {
		t.Error("the exported constructors and ByName return different tables")
	}
}

// poissonFlows drains the adapter for the slice-shaped assertions.
func poissonFlows(t *testing.T, cfg PoissonConfig, seed uint64) []FlowSpec {
	t.Helper()
	src, err := Poisson(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return Collect(src)
}

func TestPoissonLoadCalibration(t *testing.T) {
	cfg := PoissonConfig{
		Dist:            LTECellular(),
		NumUEs:          10,
		Load:            0.6,
		CellCapacityBps: 50e6,
		Duration:        60 * sim.Second,
	}
	flows := poissonFlows(t, cfg, 1)
	offered := float64(TotalBytes(flows)) * 8 / 60
	want := 0.6 * 50e6
	if math.Abs(offered-want)/want > 0.2 {
		t.Fatalf("offered %g bps, want %g (±20%%)", offered, want)
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].Start < flows[i-1].Start {
			t.Fatal("arrivals not time-ordered")
		}
	}
	for _, f := range flows {
		if f.UE < 0 || f.UE >= 10 || f.Size <= 0 || f.Start >= cfg.Duration {
			t.Fatalf("bad flow %+v", f)
		}
	}
}

// TestPoissonVolumeMatchingProperty: across seeds, the generated
// volume reaches the target and never overshoots by more than the
// final draw's size cap — the volume-matching invariant.
func TestPoissonVolumeMatchingProperty(t *testing.T) {
	cfg := PoissonConfig{
		Dist:            LTECellular(),
		NumUEs:          6,
		Load:            0.5,
		CellCapacityBps: 30e6,
		Duration:        20 * sim.Second,
	}
	target := int64(cfg.Load * cfg.CellCapacityBps / 8 * cfg.Duration.Seconds())
	for seed := uint64(1); seed <= 25; seed++ {
		flows := poissonFlows(t, cfg, seed)
		vol := TotalBytes(flows)
		if vol < target {
			t.Fatalf("seed %d: volume %d below target %d", seed, vol, target)
		}
		// One draw past the target, each capped at target/2.
		if vol > target+target/2 {
			t.Fatalf("seed %d: volume %d overshoots target %d", seed, vol, target)
		}
	}
}

func TestPoissonValidation(t *testing.T) {
	bad := PoissonConfig{NumUEs: 1, Load: 0.5, CellCapacityBps: 1e6, Duration: sim.Second}
	if _, err := Poisson(bad, rng.New(1)); err == nil {
		t.Fatal("nil dist accepted")
	}
	bad.Dist = LTECellular()
	bad.Load = 0
	if _, err := Poisson(bad, rng.New(1)); err == nil {
		t.Fatal("zero load accepted")
	}
}

func TestPoissonMaxFlows(t *testing.T) {
	flows := poissonFlows(t, PoissonConfig{
		Dist: LTECellular(), NumUEs: 5, Load: 0.9, CellCapacityBps: 100e6,
		Duration: 100 * sim.Second, MaxFlows: 50,
	}, 2)
	if len(flows) != 50 {
		t.Fatalf("MaxFlows not honoured: %d", len(flows))
	}
}

func TestPoissonDeterministic(t *testing.T) {
	cfg := PoissonConfig{Dist: LTECellular(), NumUEs: 4, Load: 0.5, CellCapacityBps: 20e6, Duration: 5 * sim.Second}
	a := poissonFlows(t, cfg, 9)
	b := poissonFlows(t, cfg, 9)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic schedule")
		}
	}
}

func TestMerge(t *testing.T) {
	a := []FlowSpec{{Start: 1}, {Start: 5}}
	b := []FlowSpec{{Start: 2}, {Start: 3}, {Start: 9}}
	m := Collect(MergeSources(SliceSource(a), SliceSource(b)))
	if len(m) != 5 {
		t.Fatalf("merged %d", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Start < m[i-1].Start {
			t.Fatal("merge not ordered")
		}
	}
	if len(Collect(MergeSources(SliceSource(nil), SliceSource(nil)))) != 0 {
		t.Fatal("empty merge")
	}
}

// TestMergeStabilityProperty: across random sorted inputs, MergeSources (a)
// keeps the output sorted, (b) preserves multiset membership, and (c)
// is stable — same-instant flows keep a-before-b order. UE carries a
// provenance tag so stability is checkable.
func TestMergeStabilityProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		mk := func(tag, n int) []FlowSpec {
			out := make([]FlowSpec, n)
			at := sim.Time(0)
			for i := range out {
				at += sim.Time(r.Intn(3)) * sim.Millisecond // duplicates likely
				out[i] = FlowSpec{Start: at, UE: tag, Size: int64(i + 1)}
			}
			return out
		}
		a := mk(0, 1+r.Intn(20))
		b := mk(1, 1+r.Intn(20))
		m := Collect(MergeSources(SliceSource(a), SliceSource(b)))
		if len(m) != len(a)+len(b) {
			t.Fatalf("seed %d: merged %d, want %d", seed, len(m), len(a)+len(b))
		}
		var ia, ib int
		for i, f := range m {
			if i > 0 && f.Start < m[i-1].Start {
				t.Fatalf("seed %d: out of order at %d", seed, i)
			}
			// Stability: ties resolve a-first, and each input's
			// elements appear in their original order.
			if f.UE == 0 {
				if f != a[ia] {
					t.Fatalf("seed %d: a reordered at %d", seed, i)
				}
				ia++
			} else {
				if f != b[ib] {
					t.Fatalf("seed %d: b reordered at %d", seed, i)
				}
				ib++
			}
		}
		// Explicit tie check: at every instant, no a-flow may follow a
		// b-flow of the same instant.
		for i := 1; i < len(m); i++ {
			if m[i].Start == m[i-1].Start && m[i-1].UE == 1 && m[i].UE == 0 {
				t.Fatalf("seed %d: tie broken b-before-a at %d", seed, i)
			}
		}
	}
}

func TestMergeSourcesStable(t *testing.T) {
	a := []FlowSpec{{Start: 1, UE: 0}, {Start: 2, UE: 0}}
	b := []FlowSpec{{Start: 1, UE: 1}, {Start: 2, UE: 1}}
	got := Collect(MergeSources(SliceSource(a), SliceSource(b)))
	want := []FlowSpec{a[0], b[0], a[1], b[1]}
	if len(got) != len(want) {
		t.Fatalf("merged %d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTotalBytes(t *testing.T) {
	if TotalBytes([]FlowSpec{{Size: 10}, {Size: 20}}) != 30 {
		t.Fatal("TotalBytes wrong")
	}
}

func TestLimit(t *testing.T) {
	flows := []FlowSpec{{Start: 1, Size: 1}, {Start: 2, Size: 1}, {Start: 3, Size: 1}}
	if n := len(Collect(Limit(SliceSource(flows), 2))); n != 2 {
		t.Fatalf("Limit(2) yielded %d", n)
	}
	if n := len(Collect(Limit(SliceSource(flows), 0))); n != 3 {
		t.Fatalf("Limit(0) yielded %d", n)
	}
}

// TestSortByStartMatchesStableSort: sortByStart orders any schedule —
// these are heavy with simultaneous flows — exactly as a stable sort by
// start time does.
func TestSortByStartMatchesStableSort(t *testing.T) {
	r := rng.New(20261015)
	var keys []startKey // reused, as Spec.Build reuses it across classes
	for c := 0; c < 500; c++ {
		n := r.Intn(400)
		flows := make([]FlowSpec, n)
		for i := range flows {
			// Few distinct instants, so most flows tie; UE tells them apart.
			flows[i] = FlowSpec{Start: sim.Time(r.Intn(1 + n/(1+r.Intn(16)))), UE: i, Size: int64(r.Intn(1000))}
		}
		want := slices.Clone(flows)
		slices.SortStableFunc(want, func(a, b FlowSpec) int { return cmp.Compare(a.Start, b.Start) })
		keys = sortByStart(flows, keys)
		if !slices.Equal(flows, want) {
			t.Fatalf("case %d (%d flows): sortByStart\n %v\nstable sort\n %v", c, n, flows, want)
		}
	}
}
