package main

import (
	"fmt"
	"io"
	"sort"

	"outran/internal/obs"
)

// kpi renders the KPI time-series report: the final per-cell state,
// the deployment (or single-cell) series over time, and the worst
// cells ranked by cumulative tail FCT. The stream interleaves cells at
// each instant, so the records are first split by cell index.
func kpi(w io.Writer, recs []obs.KPIRecord) {
	if len(recs) == 0 {
		fmt.Fprintln(w, "kpi stream: no records")
		return
	}
	byCell := map[int][]obs.KPIRecord{}
	for _, r := range recs {
		byCell[r.Cell] = append(byCell[r.Cell], r)
	}
	rollup := byCell[obs.RollupCell]
	delete(byCell, obs.RollupCell)
	cells := make([]int, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Ints(cells)

	first, last := recs[0].T, recs[len(recs)-1].T
	fmt.Fprintf(w, "kpi stream     %d records, %d cells, %d instants, %.1fs..%.1fs\n",
		len(recs), len(cells), len(byCell[cells[0]]), first.Seconds(), last.Seconds())

	fmt.Fprintln(w, "\nfinal state (cumulative over the run)")
	fmt.Fprintf(w, "  %4s %9s %11s %11s %7s %7s %7s %9s %6s %9s\n",
		"cell", "flows", "p50 ms", "p99 ms", "se", "fair", "active", "queue B", "retx", "sacrifice")
	for _, c := range cells {
		s := byCell[c]
		r := s[len(s)-1]
		fmt.Fprintf(w, "  %4d %9d %11.2f %11.2f %7.3f %7.3f %7d %9d %5.1f%% %9.5f\n",
			c, r.CumFlows, r.CumP50Ms, r.CumP99Ms, r.SE, r.Fairness,
			r.ActiveFlows, sumQueue(r), 100*r.HARQRetxRate, r.Sacrifice)
	}

	// The over-time series: the deployment roll-up when present, else
	// the single cell's own records.
	series := rollup
	label := "deployment roll-up"
	if len(series) == 0 {
		series = byCell[cells[0]]
		label = fmt.Sprintf("cell %d", cells[0])
	}
	fmt.Fprintf(w, "\nwindow series (%s)\n", label)
	fmt.Fprintf(w, "  %8s %9s %11s %11s %7s %7s %7s %9s %6s\n",
		"t", "flows", "p50 ms", "p99 ms", "se", "fair", "active", "queue B", "retx")
	for _, r := range series {
		fmt.Fprintf(w, "  %7.1fs %9d %11.2f %11.2f %7.3f %7.3f %7d %9d %5.1f%%\n",
			r.T.Seconds(), r.WinFlows, r.WinP50Ms, r.WinP99Ms, r.SE, r.Fairness,
			r.ActiveFlows, sumQueue(r), 100*r.HARQRetxRate)
	}

	if len(cells) > 1 {
		fmt.Fprintln(w, "\nworst cells by cumulative p99 FCT")
		rank := make([]obs.KPIRecord, 0, len(cells))
		for _, c := range cells {
			s := byCell[c]
			rank = append(rank, s[len(s)-1])
		}
		sort.Slice(rank, func(i, j int) bool {
			if rank[i].CumP99Ms != rank[j].CumP99Ms {
				return rank[i].CumP99Ms > rank[j].CumP99Ms
			}
			return rank[i].Cell < rank[j].Cell
		})
		n := len(rank)
		if n > 5 {
			n = 5
		}
		for i := 0; i < n; i++ {
			r := rank[i]
			fmt.Fprintf(w, "  #%d cell %-3d p99 %9.2fms  p50 %9.2fms  fair %.3f  retx %.1f%%\n",
				i+1, r.Cell, r.CumP99Ms, r.CumP50Ms, r.Fairness, 100*r.HARQRetxRate)
		}
	}
}

// sumQueue folds the per-priority RLC backlog into one byte count.
func sumQueue(r obs.KPIRecord) int64 {
	var total int64
	for _, b := range r.QueueBytes {
		total += b
	}
	return total
}
