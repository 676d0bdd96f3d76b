package main

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"outran/internal/obs"
	"outran/internal/sim"
)

// kpiReport is the KPI time-series report, folded from the stream one
// record at a time: the final per-cell state, the deployment (or
// single-cell) series over time, and the worst cells ranked by
// cumulative tail FCT. It keeps each cell's last record and the one
// series it prints, never the whole stream.
type kpiReport struct {
	recs        int
	first, last sim.Time
	final       map[int]obs.KPIRecord // each cell's last record
	rollup      []obs.KPIRecord
	// low is the lowest cell index seen and lowRecs its record count,
	// the report's instants. Its records are the series while the
	// stream has no roll-up.
	low       int
	lowRecs   int
	lowSeries []obs.KPIRecord
}

// kpi reads a KPI stream and prints its report. It prints nothing when
// the stream fails to decode.
func kpi(w io.Writer, r io.Reader) error {
	k := kpiReport{final: map[int]obs.KPIRecord{}}
	if err := obs.ScanKPI(r, k.fold); err != nil {
		return err
	}
	k.print(w)
	return nil
}

func (k *kpiReport) fold(r obs.KPIRecord) {
	if k.recs == 0 {
		k.first = r.T
	}
	k.recs++
	k.last = r.T
	if r.Cell == obs.RollupCell {
		k.rollup = append(k.rollup, r)
		k.lowSeries = nil
		return
	}
	if _, seen := k.final[r.Cell]; !seen && (len(k.final) == 0 || r.Cell < k.low) {
		k.low, k.lowRecs, k.lowSeries = r.Cell, 0, nil
	}
	k.final[r.Cell] = r
	if r.Cell == k.low {
		k.lowRecs++
		if len(k.rollup) == 0 {
			k.lowSeries = append(k.lowSeries, r)
		}
	}
}

func (k *kpiReport) print(w io.Writer) {
	switch {
	case k.recs == 0:
		fmt.Fprintln(w, "kpi stream: no records")
		return
	case len(k.final) == 0:
		fmt.Fprintf(w, "kpi stream: %d roll-up records, no cell records\n", k.recs)
		return
	}
	cells := make([]int, 0, len(k.final))
	for c := range k.final {
		cells = append(cells, c)
	}
	slices.Sort(cells)

	fmt.Fprintf(w, "kpi stream     %d records, %d cells, %d instants, %.1fs..%.1fs\n",
		k.recs, len(cells), k.lowRecs, k.first.Seconds(), k.last.Seconds())

	fmt.Fprintln(w, "\nfinal state (cumulative over the run)")
	fmt.Fprintf(w, "  %4s %9s %11s %11s %7s %7s %7s %9s %6s %9s\n",
		"cell", "flows", "p50 ms", "p99 ms", "se", "fair", "active", "queue B", "retx", "sacrifice")
	for _, c := range cells {
		r := k.final[c]
		fmt.Fprintf(w, "  %4d %9d %11.2f %11.2f %7.3f %7.3f %7d %9d %5.1f%% %9.5f\n",
			c, r.CumFlows, r.CumP50Ms, r.CumP99Ms, r.SE, r.Fairness,
			r.ActiveFlows, sumQueue(r), 100*r.HARQRetxRate, r.Sacrifice)
	}

	// The over-time series: the deployment roll-up when present, else
	// the lowest cell's own records.
	series := k.rollup
	label := "deployment roll-up"
	if len(series) == 0 {
		series = k.lowSeries
		label = fmt.Sprintf("cell %d", k.low)
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
			rank = append(rank, k.final[c])
		}
		sort.Slice(rank, func(i, j int) bool {
			if rank[i].CumP99Ms != rank[j].CumP99Ms {
				return rank[i].CumP99Ms > rank[j].CumP99Ms
			}
			return rank[i].Cell < rank[j].Cell
		})
		for i, r := range rank[:min(5, len(rank))] {
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
