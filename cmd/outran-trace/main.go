// Command outran-trace analyzes JSONL event traces written by the
// simulator's tracing layer (internal/obs, enabled with
// outran-sim -trace).
//
// Usage:
//
//	outran-trace summary <trace.jsonl>          run overview + event counts
//	outran-trace audit   <trace.jsonl>          per-TTI scheduler decision audit
//	outran-trace flow    <trace.jsonl> <flow>   one flow's full timeline
//	outran-trace slow    <trace.jsonl> [n]      n slowest flows with per-layer residency
//	outran-trace kpi     <kpi.jsonl>            KPI time-series report (outran-sim -kpi)
//
// The audit subcommand replays the trace's decision records into the
// §5.4 numbers: the override rate (how often ε-relaxation picked a
// different user than the legacy metric) and the mean relative metric
// sacrifice per decision, plus the spectral-efficiency and fairness
// aggregates recomputed from the trace's tracker samples — which match
// the live run's end-of-run stats exactly.
package main

import (
	"fmt"
	"os"
	"strconv"

	"outran/internal/obs"
	"outran/internal/sim"
)

func main() {
	if len(os.Args) < 3 {
		usage()
		os.Exit(2)
	}
	cmd, path := os.Args[1], os.Args[2]
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	// The KPI stream is its own JSONL schema, not an event trace —
	// branch before the trace decoder sees it.
	if cmd == "kpi" {
		recs, err := obs.ReadKPI(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		kpi(recs)
		return
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "summary":
		summary(events)
	case "audit":
		audit(events)
	case "flow":
		if len(os.Args) < 4 {
			usage()
			os.Exit(2)
		}
		flow(events, os.Args[3])
	case "slow":
		n := 10
		if len(os.Args) >= 4 {
			if v, err := strconv.Atoi(os.Args[3]); err == nil && v > 0 {
				n = v
			}
		}
		slow(events, n)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: outran-trace <summary|audit|flow|slow> <trace.jsonl> [arg]
  summary <trace>         run overview and event counts
  audit   <trace>         scheduler decision audit (§5.4 SE cost)
  flow    <trace> <flow>  one flow's timeline ("src:port>dst:port/proto")
  slow    <trace> [n]     n slowest flows with per-layer residency
  kpi     <kpi.jsonl>     KPI time-series report (written by outran-sim -kpi)`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func printMeta(events []obs.Event) {
	meta, err := obs.FindMeta(events)
	if err != nil {
		fmt.Println("run            (no meta event in trace)")
		return
	}
	fmt.Printf("run            %s, %d UEs, %d RBs, seed %d, TTI %v, sample period %d TTIs\n",
		meta.Sched, meta.UEs, meta.RBs, meta.Seed, meta.TTINanos, meta.SamplePeriod)
}

func summary(events []obs.Event) {
	printMeta(events)
	tl := obs.Timelines(events)
	completed := 0
	var res obs.Residency
	withRes := 0
	for _, f := range tl {
		if f.End >= 0 {
			completed++
		}
		if r, ok := f.Residency(); ok {
			res.Ingress += r.Ingress
			res.Air += r.Air
			res.Drain += r.Drain
			withRes++
		}
	}
	fmt.Printf("flows          %d seen, %d completed\n", len(tl), completed)
	printCheckpoints(events)
	if withRes > 0 {
		n := sim.Time(withRes)
		fmt.Printf("residency      ingress %v  air %v  drain %v (mean over %d flows)\n",
			res.Ingress/n, res.Air/n, res.Drain/n, withRes)
	}
	fmt.Println("events:")
	for _, tc := range obs.CountByType(events) {
		fmt.Printf("  %-14s %d\n", tc.Type, tc.Count)
	}
}

// printCheckpoints summarises the run's checkpoint writes: cadence,
// final write count and last snapshot size (written by the deploy runtime).
func printCheckpoints(events []obs.Event) {
	var n int64
	var lastSize int64
	var firstT, lastT sim.Time
	for _, ev := range events {
		if ev.Type != obs.EvCheckpoint {
			continue
		}
		if ev.Sent > n {
			n = ev.Sent
		}
		lastSize = ev.Size
		if firstT == 0 {
			firstT = ev.T
		}
		lastT = ev.T
	}
	if n == 0 {
		return
	}
	cadence := firstT
	if n > 1 {
		cadence = (lastT - firstT) / sim.Time(n-1)
	}
	fmt.Printf("checkpoints    %d written, every %v, last snapshot %d bytes\n", n, cadence, lastSize)
}

func audit(events []obs.Event) {
	printMeta(events)
	a := obs.ComputeAudit(events)
	fmt.Printf("ttis           %d (%d RB allocations, %d used RB-TTIs, %d served bits)\n",
		a.TTIs, a.AllocRBs, a.UsedRBs, a.ServedBits)
	if a.Decisions == 0 {
		fmt.Println("decisions      none (not an ε-relaxation scheduler, or tracing started late)")
	} else {
		fmt.Printf("decisions      %d records, %d overrides (%.2f%%), mean candidate set %.2f\n",
			a.Decisions, a.Overrides,
			100*float64(a.Overrides)/float64(a.Decisions), a.CandMean)
		fmt.Printf("SE sacrifice   %.6f mean relative metric loss per decision (§5.4)\n", a.SacrificeMean)
		fmt.Printf("override lvls  %v (by winning MLFQ level)\n", a.OverridesByLevel)
	}
	fmt.Printf("spectral eff   %.6f bit/s/Hz over %d samples (trace replay)\n", a.MeanSE, a.Samples)
	fmt.Printf("fairness       %.6f (Jain, trace replay)\n", a.MeanFairness)
	if a.MeanActiveSE > 0 {
		fmt.Printf("active SE      %.6f bit/s/Hz over used RBs\n", a.MeanActiveSE)
	}
}

func flow(events []obs.Event, id string) {
	for _, f := range obs.Timelines(events) {
		if f.Flow != id {
			continue
		}
		fmt.Printf("flow %s  ue=%d size=%d\n", f.Flow, f.UE, f.Size)
		if f.End >= 0 {
			fmt.Printf("  completed in %v", f.FCT)
			if r, ok := f.Residency(); ok {
				fmt.Printf("  (ingress %v, air %v, drain %v)", r.Ingress, r.Air, r.Drain)
			}
			fmt.Println()
		} else {
			fmt.Println("  incomplete within trace")
		}
		for _, ev := range f.Events {
			fmt.Printf("  %12v  %-10s", ev.T, ev.Type)
			switch ev.Type {
			case obs.EvMLFQ:
				fmt.Printf(" level=%d sent=%d threshold=%d", ev.Level, ev.Sent, ev.Threshold)
			case obs.EvPDCPSN, obs.EvDeliver:
				fmt.Printf(" sn=%d", ev.SN)
			case obs.EvFlowEnd:
				fmt.Printf(" fct=%v", ev.FCT)
			}
			fmt.Println()
		}
		return
	}
	fatal(fmt.Errorf("flow %q not in trace", id))
}

func slow(events []obs.Event, n int) {
	tl := obs.SlowestFlows(obs.Timelines(events), n)
	if len(tl) == 0 {
		fmt.Println("no completed flows in trace")
		return
	}
	fmt.Printf("%-40s %6s %12s %12s %12s %12s %5s\n",
		"flow", "ue", "fct", "ingress", "air", "drain", "level")
	for _, f := range tl {
		r, ok := f.Residency()
		if !ok {
			fmt.Printf("%-40s %6d %12v %12s %12s %12s %5d\n",
				f.Flow, f.UE, f.FCT, "-", "-", "-", f.FinalLevel)
			continue
		}
		fmt.Printf("%-40s %6d %12v %12v %12v %12v %5d\n",
			f.Flow, f.UE, f.FCT, r.Ingress, r.Air, r.Drain, f.FinalLevel)
	}
}
