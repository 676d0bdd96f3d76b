package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMergeManyCells is the deployment-scale property test for
// FCTStream.Merge: folding 128 per-cell streams into an aggregate in
// cell order must (a) answer exactly like one union stream that saw
// every completion — merge is lossless count addition over a shared
// layout — and (b) stay within the documented ~4.4% relative quantile
// error of the exact per-sample estimator.
func TestStreamMergeManyCells(t *testing.T) {
	const cells = 128
	exact := &FCTRecorder{} // ~31 k samples: far below DefaultExactCap, so it stays exact
	union := NewFCTStream()
	agg := NewFCTStream()
	for cell := 0; cell < cells; cell++ {
		// Heterogeneous cells: population size and mix vary by seed.
		s := NewFCTStream()
		for _, smp := range paperSamples(50+cell*3, int64(1000+cell)) {
			s.Record(smp)
			union.Record(smp)
			exact.Record(smp)
		}
		if err := agg.Merge(s); err != nil {
			t.Fatalf("cell %d: %v", cell, err)
		}
	}

	views := []struct {
		name        string
		agg, un, ex Stats
	}{
		{"overall", agg.Overall(), union.Overall(), exact.Overall()},
		{"short", agg.ByClass(Short), union.ByClass(Short), exact.ByClass(Short)},
		{"medium", agg.ByClass(Medium), union.ByClass(Medium), exact.ByClass(Medium)},
		{"long", agg.ByClass(Long), union.ByClass(Long), exact.ByClass(Long)},
		{"incast", agg.IncastStats(), union.IncastStats(), exact.IncastStats()},
	}
	for _, v := range views {
		// (a) merged-in-cell-order == union, bit for bit.
		if v.agg != v.un {
			t.Errorf("%s: merged %+v != union %+v", v.name, v.agg, v.un)
		}
		// (b) merged vs exact: quantiles within the bucket-geometry
		// bound (2^(1/16) growth → ≤ ~4.43% from a bucket edge; the
		// repo-wide budget is 5%).
		for _, q := range []struct {
			name     string
			got, ref float64
		}{
			{"p50", float64(v.agg.P50), float64(v.ex.P50)},
			{"p95", float64(v.agg.P95), float64(v.ex.P95)},
			{"p99", float64(v.agg.P99), float64(v.ex.P99)},
		} {
			if q.ref == 0 {
				continue
			}
			if e := math.Abs(q.got-q.ref) / q.ref; e > 0.05 {
				t.Errorf("%s %s: merged %g exact %g (rel err %.4f > 0.05)",
					v.name, q.name, q.got, q.ref, e)
			}
		}
		if v.agg.Count != v.ex.Count || v.agg.Max != v.ex.Max {
			t.Errorf("%s: merged count/max %+v vs exact %+v", v.name, v.agg, v.ex)
		}
	}
}

// TestFairnessMomentRollupManyCells: Jain's index over a deployment
// is recomputed from summed per-cell raw moments (Σtput, Σtput², n)
// block by block — the deploy package's aggregation rule. Against 100+
// cells' worth of synthetic throughput vectors, the moment roll-up
// must match JainIndex over the concatenated user population to float
// precision, and must NOT match the mean of per-cell indices (the
// naive aggregation this rule exists to avoid).
func TestFairnessMomentRollupManyCells(t *testing.T) {
	const cells = 120
	r := rand.New(rand.NewSource(42))
	var sum, sumSq, n float64
	var allTputs []float64
	var perCell []float64
	for cell := 0; cell < cells; cell++ {
		users := 4 + r.Intn(12)
		tputs := make([]float64, users)
		scale := math.Exp(r.Float64() * 3) // cells differ in load
		for u := range tputs {
			tputs[u] = scale * r.Float64()
		}
		var s, q float64
		for _, tp := range tputs {
			s += tp
			q += tp * tp
		}
		sum += s
		sumSq += q
		n += float64(users)
		allTputs = append(allTputs, tputs...)
		perCell = append(perCell, JainIndex(tputs))
	}

	merged := sum * sum / (n * sumSq)
	want := JainIndex(allTputs)
	if e := math.Abs(merged-want) / want; e > 1e-12 {
		t.Fatalf("moment roll-up %.15f != union Jain %.15f (rel %g)", merged, want, e)
	}
	naive := MeanFloat(perCell)
	if math.Abs(naive-want) < 1e-3 {
		t.Fatalf("test population too homogeneous: naive mean-of-indices %.6f ≈ union %.6f", naive, want)
	}
}
