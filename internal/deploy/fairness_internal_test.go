package deploy

import (
	"math"
	"testing"

	"outran/internal/ran"
	"outran/internal/sim"
)

// fairnessCell builds a minimal 3-UE cell and replaces its tracker's
// sampling cadence so every driven TTI folds one measurement block in
// which the first len(bits) users contended and were served the given
// bits.
func fairnessCell(t *testing.T, blocks [][]int) *ran.Cell {
	t.Helper()
	cfg := ran.DefaultLTEConfig().WithTopology(3, 15).ForScheduler(ran.SchedPF)
	c, err := ran.NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Tracker.SamplePeriod = 1
	c.Tracker.OnTTI(0, 0) // anchor tick
	for i, bits := range blocks {
		for ue, b := range bits {
			c.Tracker.OnUE(ue, b, true)
		}
		c.Tracker.OnTTI(sim.Time(i+1)*sim.Millisecond, 0)
	}
	return c
}

// TestAggregateFairnessMergedMoments is the regression test for the
// deployment fairness bug: the roll-up must compute Jain over the
// union of every cell's users (merged raw moments per block), not
// average the per-cell indices. Two internally fair cells at very
// different throughput scales expose the difference: per-cell Jain is
// 1.0 in both, but the union index is ≈0.51.
func TestAggregateFairnessMergedMoments(t *testing.T) {
	a := fairnessCell(t, [][]int{{10, 10}})
	b := fairnessCell(t, [][]int{{1000, 1000}})

	if fa := a.Tracker.MeanFairness(); fa != 1 {
		t.Fatalf("cell A per-cell fairness %v, want 1 (fixture broken)", fa)
	}
	if fb := b.Tracker.MeanFairness(); fb != 1 {
		t.Fatalf("cell B per-cell fairness %v, want 1 (fixture broken)", fb)
	}

	got, ok := aggregateFairness([]*ran.Cell{a, b})
	if !ok {
		t.Fatal("aggregateFairness reported no blocks")
	}
	want := 2020.0 * 2020.0 / (4 * (200 + 2e6)) // Jain over {10,10,1000,1000}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("deployment fairness = %v, want union Jain %v (mean of per-cell means would be 1)", got, want)
	}
}

// TestAggregateFairnessSingleCell: with one cell the merged-moment
// computation must reproduce the cell's own per-block mean exactly —
// the refactor cannot change single-cell results.
func TestAggregateFairnessSingleCell(t *testing.T) {
	c := fairnessCell(t, [][]int{{5, 3, 2}, {7, 7, 7}, {1, 9, 4}})
	got, ok := aggregateFairness([]*ran.Cell{c})
	if !ok {
		t.Fatal("aggregateFairness reported no blocks")
	}
	if want := c.Tracker.MeanFairness(); math.Abs(got-want) > 1e-15 {
		t.Errorf("single-cell aggregate %v != cell's own mean fairness %v", got, want)
	}
}

// TestAggregateFairnessRaggedBlocks: cells with different block counts
// (one froze earlier) still merge — trailing blocks cover only the
// cells that have them.
func TestAggregateFairnessRaggedBlocks(t *testing.T) {
	a := fairnessCell(t, [][]int{{10, 10}, {10, 10}})
	b := fairnessCell(t, [][]int{{1000, 1000}})
	got, ok := aggregateFairness([]*ran.Cell{a, b})
	if !ok {
		t.Fatal("aggregateFairness reported no blocks")
	}
	union := 2020.0 * 2020.0 / (4 * (200 + 2e6))
	want := (union + 1.0) / 2 // block 1: merged; block 2: cell A alone, fair
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("ragged-block fairness = %v, want %v", got, want)
	}
}

// TestAggregateFairnessNoBlocks: cells that never folded a block
// report no data rather than a fabricated index.
func TestAggregateFairnessNoBlocks(t *testing.T) {
	cfg := ran.DefaultLTEConfig().WithTopology(2, 15).ForScheduler(ran.SchedPF)
	c, err := ran.NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := aggregateFairness([]*ran.Cell{c}); ok {
		t.Error("aggregateFairness fabricated an index with no measurement blocks")
	}
}
