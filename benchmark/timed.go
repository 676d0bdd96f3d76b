package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"outran/internal/ran"
)

// passSeconds is what one timed pass of any workload costs on the
// 2-core reference box; --seconds buys seconds/passSeconds passes. The
// pass count is derived from the flag alone, never from measured time,
// so the simulated outcome of a run does not depend on the host.
const passSeconds = 4

// setupReps is how many times the workload is set up to find setup_s
// (three in -quick mode). Construction takes 5-80 ms, so the median
// needs this many to settle.
const setupReps = 15

// maxFailedShare is the share of started flows that may be unfinished
// at the horizon before the run counts as overloaded or broken.
const maxFailedShare = 0.05

func passCount(seconds int) int {
	return max(1, seconds/passSeconds)
}

// timedResult is the outcome of the timed phase: span tracing off,
// one OutRAN pass per sub-seed.
type timedResult struct {
	Passes         int                  `json:"passes"`
	EndToEnd       map[string]float64   `json:"end_to_end"`
	Info           map[string]float64   `json:"info"`
	PerPass        []map[string]float64 `json:"per_pass"`
	WallSpread     float64              `json:"wall_spread"`
	ShortSamples   int                  `json:"fct_short_samples"`
	Attempted      int                  `json:"ops_attempted"`
	Failed         int                  `json:"ops_failed"`
	SimDigest      string               `json:"sim_digest"`
	WorkloadDigest string               `json:"workload_digest"`
}

// passMetrics extracts one pass's value of every metric the timed
// phase reports as a median over passes.
func passMetrics(o outcome) map[string]float64 {
	return map[string]float64{
		"wall_ns_per_cell_tti": o.nsPerCellTTI(),
		"fct_short_p50_ms":     o.short.P50.Milliseconds(),
		"spectral_eff_bps_hz":  o.counters.MeanSpectralEff,
		"fairness_jain":        o.counters.MeanFairnessIndex,
		"fct_short_p99_ms":     o.short.P99.Milliseconds(),
		"fct_long_mean_ms":     o.long.Mean.Milliseconds(),
	}
}

// runTimed is the timed phase of one workload run: a short untimed
// warm-up, then one pass per sub-seed with span tracing off, then the
// set-up repetitions.
func runTimed(w workloadDef, e env, seed uint64, passes, reps int) (timedResult, error) {
	subs := subSeeds(seed, passes)
	// Warm-up: page the binary in and grow the heap on a twentieth of
	// the horizon; nothing of it is reported.
	if _, err := runPass(w.quick(20), e, passOpts{sub: subs[0], sched: ran.SchedOutRAN}); err != nil {
		return timedResult{}, fmt.Errorf("warm-up: %w", err)
	}

	res := timedResult{Passes: passes}
	var digests, wdigests []string
	var last outcome
	for i, sub := range subs {
		last = outcome{} // drop the previous pass's cells before collecting
		runtime.GC()
		o, err := runPass(w, e, passOpts{sub: sub, sched: ran.SchedOutRAN})
		if err != nil {
			return res, fmt.Errorf("pass %d: %w", i, err)
		}
		if err := checkOutcome(w, sub, o); err != nil {
			return res, fmt.Errorf("pass %d: %w", i, err)
		}
		res.PerPass = append(res.PerPass, passMetrics(o))
		res.ShortSamples += o.short.Count
		res.Attempted += o.counters.FlowsStarted
		res.Failed += o.counters.FlowsStarted - o.counters.FlowsCompleted
		digests = append(digests, o.digest)
		wd, err := workloadDigest(w, sub)
		if err != nil {
			return res, err
		}
		wdigests = append(wdigests, wd)
		last = o
	}
	heap := liveHeapMB(last.cells)
	last = outcome{}

	var setups []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		_, ns, err := setUp(w, subs[i%len(subs)], nil)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, ns/1e9)
	}

	col := func(name string) []float64 {
		v := make([]float64, len(res.PerPass))
		for i, m := range res.PerPass {
			v[i] = m[name]
		}
		return v
	}
	res.EndToEnd = map[string]float64{"setup_s": median(setups), "live_heap_mb": heap}
	for _, d := range endToEnd {
		if _, perPass := res.PerPass[0][d.name]; perPass {
			res.EndToEnd[d.name] = median(col(d.name))
		}
	}
	res.Info = map[string]float64{}
	for _, d := range timedInfo {
		res.Info[d.name] = median(col(d.name))
	}
	lo, hi := minMax(col("wall_ns_per_cell_tti"))
	res.WallSpread = (hi - lo) / res.EndToEnd["wall_ns_per_cell_tti"]
	var err error
	if res.SimDigest, err = digestJSON(digests); err != nil {
		return res, err
	}
	if res.WorkloadDigest, err = digestJSON(wdigests); err != nil {
		return res, err
	}
	if err := checkFailedShare(res.Attempted, res.Failed); err != nil {
		return res, err
	}
	return res, checkMetrics(endToEnd, res.EndToEnd, true)
}

func checkFailedShare(attempted, failed int) error {
	if attempted < 1 {
		return fmt.Errorf("no flow was started")
	}
	if share := float64(failed) / float64(attempted); share > maxFailedShare {
		return fmt.Errorf("%d of %d flows unfinished at the horizon (%.1f%% > %.0f%%): overloaded or broken workload",
			failed, attempted, share*100, maxFailedShare*100)
	}
	return nil
}

// checkMetrics verifies that got holds exactly the metrics defs names,
// each finite, and — for end-to-end metrics — none zero.
func checkMetrics(defs []metricDef, got map[string]float64, nonZero bool) error {
	var bad []string
	for _, d := range defs {
		v, ok := got[d.name]
		switch {
		case !ok:
			bad = append(bad, d.name+" missing")
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, fmt.Sprintf("%s = %v", d.name, v))
		case nonZero && v == 0:
			bad = append(bad, d.name+" = 0")
		}
	}
	if len(got) != len(defs) {
		bad = append(bad, fmt.Sprintf("%d metrics emitted, catalogue has %d", len(got), len(defs)))
	}
	if len(bad) > 0 {
		return fmt.Errorf("metric check: %s", strings.Join(bad, "; "))
	}
	return nil
}
