package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain implements `benchmark compare <base-dir> <new-dir>`: it
// reads two sets of result files (written with -json; nested
// directories are walked) and prints one row per workload and
// end-to-end metric with both medians and quartiles, the regression
// bound and a verdict. It exits 1 when any row is worse or unresolved.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <base-dir> <new-dir>")
		return 2
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	cur, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	bad := 0
	fmt.Printf("%-12s %-22s %12s %25s %12s %25s %6s  %s\n", "workload", "metric", "base median", "[q1, q3]", "new median", "[q1, q3]", "bound", "verdict")
	for _, w := range workloads {
		b, c := base[w.name], cur[w.name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, d := range endToEnd {
			row := compareMetric(d, b, c)
			fmt.Printf("%-12s %-22s %12.6g %25s %12.6g %25s %6.2f  %s\n", w.name, d.name,
				row.baseMed, fmt.Sprintf("[%.6g, %.6g]", row.baseQ1, row.baseQ3),
				row.newMed, fmt.Sprintf("[%.6g, %.6g]", row.newQ1, row.newQ3), d.bound, row.verdict)
			if row.verdict == "worse" || row.verdict == "unresolved" {
				bad++
			}
		}
		for _, line := range compareExact(b, c) {
			fmt.Printf("%-12s %s\n", w.name, line)
			if strings.HasSuffix(line, "DIFFER") {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d row(s) worse, unresolved or differing\n", bad)
		return 1
	}
	return 0
}

// loadResults reads every timed result under dir, grouped by workload
// and ordered by path so that the i-th run of a seed on one side pairs
// with the i-th run of that seed on the other.
func loadResults(dir string) (map[string][]result, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") {
			paths = append(paths, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]result{}
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Timed != nil && r.Timed.EndToEnd != nil {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no timed benchmark results", dir)
	}
	return out, nil
}

type compareRow struct {
	baseMed, baseQ1, baseQ3 float64
	newMed, newQ1, newQ3    float64
	verdict                 string
}

// runKey identifies runs that offered identical traffic.
func runKey(r result) string { return fmt.Sprintf("%d/%d/%v", r.Seed, r.Seconds, r.Quick) }

// pairs matches the i-th base run of each key with the i-th new run.
func pairs(base, cur []result) [][2]result {
	byKey := map[string][]result{}
	for _, r := range cur {
		byKey[runKey(r)] = append(byKey[runKey(r)], r)
	}
	var out [][2]result
	for _, b := range base {
		if q := byKey[runKey(b)]; len(q) > 0 {
			out = append(out, [2]result{b, q[0]})
			byKey[runKey(b)] = q[1:]
		}
	}
	return out
}

// compareMetric applies the benchmark's regression rule to one metric
// of one workload.
//
// A sim metric is noise-free, so it is judged on the pairs of runs
// that offered identical traffic, whatever its spread across seeds:
// "same (exact)" when every pair reads exactly the same, otherwise by
// the median of the per-pair changes against the bound.
//
// A host metric is "unresolved" when the base's own spread exceeds the
// bound (unless every new run beats every base run), "worse" when the
// median worsened by more than the bound, and "better" only by the
// paired rule: at least ten pairs, the new side wins nine tenths of
// them, ties counting for neither, and the medians differ by more than
// the base's interquartile distance. Fewer pairs never claim a gain.
func compareMetric(d metricDef, base, cur []result) compareRow {
	col := func(rs []result) []float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = r.Timed.EndToEnd[d.name]
		}
		return v
	}
	bv, cv := col(base), col(cur)
	row := compareRow{baseMed: median(bv), newMed: median(cv)}
	row.baseQ1, row.baseQ3 = quartiles(bv)
	row.newQ1, row.newQ3 = quartiles(cv)

	sign := 1.0 // positive delta = worse
	if d.better == "higher" {
		sign = -1
	}
	ps := pairs(base, cur)
	wins, losses := 0, 0
	var changes []float64 // per-pair worsening as a share of the base run
	for _, p := range ps {
		b, c := p[0].Timed.EndToEnd[d.name], p[1].Timed.EndToEnd[d.name]
		switch delta := sign * (c - b); {
		case delta < 0:
			wins++
		case delta > 0:
			losses++
		}
		changes = append(changes, sign*(c-b)/b)
	}
	if d.kind == "sim" && len(ps) > 0 {
		switch m := median(changes); {
		case wins == 0 && losses == 0:
			row.verdict = "same (exact)"
		case m > d.bound:
			row.verdict = "worse"
		case m < 0 && float64(wins) >= 0.9*float64(len(ps)):
			row.verdict = "better"
		default:
			row.verdict = "same"
		}
		return row
	}
	bLo, bHi := minMax(bv)
	cLo, cHi := minMax(cv)
	allBetter := (sign > 0 && cHi < bLo) || (sign < 0 && cLo > bHi)
	iqr := row.baseQ3 - row.baseQ1
	worsening := sign * (row.newMed - row.baseMed) / row.baseMed
	switch {
	case iqr/row.baseMed > d.bound && !allBetter:
		row.verdict = "unresolved"
	case worsening > d.bound:
		row.verdict = "worse"
	case len(ps) >= 10 && float64(wins) >= 0.9*float64(len(ps)) && -worsening*row.baseMed > iqr:
		row.verdict = "better"
	default:
		row.verdict = "same"
	}
	return row
}

// compareExact reports, per pair of runs on identical traffic, whether
// the failed-flow count and the two digests are bit-identical.
func compareExact(base, cur []result) []string {
	ps := pairs(base, cur)
	if len(ps) == 0 {
		return []string{"no runs on identical traffic (seed, seconds) to compare exactly"}
	}
	verdict := func(same bool) string {
		if same {
			return "identical"
		}
		return "DIFFER"
	}
	failed, sim, wl := true, true, true
	for _, p := range ps {
		b, c := p[0].Timed, p[1].Timed
		failed = failed && b.Failed == c.Failed
		sim = sim && b.SimDigest == c.SimDigest
		wl = wl && b.WorkloadDigest == c.WorkloadDigest
	}
	return []string{
		fmt.Sprintf("%-22s %d pair(s) %s", "ops_failed", len(ps), verdict(failed)),
		fmt.Sprintf("%-22s %d pair(s) %s", "sim_digest", len(ps), verdict(sim)),
		fmt.Sprintf("%-22s %d pair(s) %s", "workload_digest", len(ps), verdict(wl)),
	}
}
