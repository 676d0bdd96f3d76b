// Command outran-trace analyzes JSONL event traces written by the
// simulator's tracing layer (internal/obs, enabled with
// outran-sim -trace), and the KPI stream outran-sim -kpi writes.
//
// Usage:
//
//	outran-trace summary <trace.jsonl>          run overview + event counts
//	outran-trace audit   <trace.jsonl>          per-TTI scheduler decision audit
//	outran-trace flow    <trace.jsonl> <flow>   one flow's full timeline
//	outran-trace slow    <trace.jsonl> [n]      n (default 10) slowest flows with per-layer residency
//	outran-trace kpi     <kpi.jsonl>            KPI time-series report (outran-sim -kpi)
//	outran-trace top [-once] [-refresh d] [-history n] <kpi.jsonl>
//	                                            live per-cell KPI view, following the file
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
	"io"
	"os"
	"strconv"

	"outran/internal/cli"
	"outran/internal/obs"
	"outran/internal/sim"
)

// errUsage is a command line that could not be understood (exit
// status 2); its text is the synopsis.
var errUsage = fmt.Errorf(`%w: outran-trace <summary|audit|flow|slow|kpi|top> <file> [arg]
  summary <trace>         run overview and event counts
  audit   <trace>         scheduler decision audit (§5.4 SE cost)
  flow    <trace> <flow>  one flow's timeline ("src:port>dst:port/proto")
  slow    <trace> [n]     n (default 10) slowest flows with per-layer residency
  kpi     <kpi.jsonl>     KPI time-series report (written by outran-sim -kpi)
  top [-once] [-refresh d] [-history n] <kpi.jsonl>
                          live per-cell KPI view, following the file`, cli.ErrUsage)

func main() { cli.Main(run) }

// run is the whole program: <cmd> <file> [arg] -> read the trace or KPI
// stream -> print the report. The subcommand and its arguments are
// checked before the file is opened.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	cmd, args := args[0], args[1:]
	if cmd == "top" {
		return top(args, stdout, stderr)
	}
	n := 10 // slow's count
	switch {
	case (cmd == "summary" || cmd == "audit" || cmd == "kpi" || cmd == "slow") && len(args) == 1,
		cmd == "flow" && len(args) == 2:
		// well-formed; nothing to parse
	case cmd == "slow" && len(args) == 2:
		v, err := strconv.Atoi(args[1])
		if err != nil || v <= 0 {
			return fmt.Errorf("slow: count %q is not a positive integer: %w", args[1], errUsage)
		}
		n = v
	default:
		return errUsage
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	// The KPI stream is its own JSONL schema, not an event trace —
	// branch before the trace decoder sees it.
	if cmd == "kpi" {
		recs, err := obs.ReadKPI(f)
		if err != nil {
			return err
		}
		kpi(stdout, recs)
		return nil
	}
	events, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	switch cmd {
	case "summary":
		summary(stdout, events)
	case "audit":
		audit(stdout, events)
	case "flow":
		return flow(stdout, events, args[1])
	case "slow":
		slow(stdout, events, n)
	}
	return nil
}

func printMeta(w io.Writer, events []obs.Event) {
	meta, err := obs.FindMeta(events)
	if err != nil {
		fmt.Fprintln(w, "run            (no meta event in trace)")
		return
	}
	fmt.Fprintf(w, "run            %s, %d UEs, %d RBs, seed %d, TTI %v, sample period %d TTIs\n",
		meta.Sched, meta.UEs, meta.RBs, meta.Seed, meta.TTINanos, meta.SamplePeriod)
}

func summary(w io.Writer, events []obs.Event) {
	printMeta(w, events)
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
	fmt.Fprintf(w, "flows          %d seen, %d completed\n", len(tl), completed)
	printCheckpoints(w, events)
	if withRes > 0 {
		n := sim.Time(withRes)
		fmt.Fprintf(w, "residency      ingress %v  air %v  drain %v (mean over %d flows)\n",
			res.Ingress/n, res.Air/n, res.Drain/n, withRes)
	}
	fmt.Fprintln(w, "events:")
	for _, tc := range obs.CountByType(events) {
		fmt.Fprintf(w, "  %-14s %d\n", tc.Type, tc.Count)
	}
}

// printCheckpoints summarises the run's checkpoint writes: cadence,
// final write count and last snapshot size (written by the deploy runtime).
func printCheckpoints(w io.Writer, events []obs.Event) {
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
	fmt.Fprintf(w, "checkpoints    %d written, every %v, last snapshot %d bytes\n", n, cadence, lastSize)
}

func audit(w io.Writer, events []obs.Event) {
	printMeta(w, events)
	a := obs.ComputeAudit(events)
	fmt.Fprintf(w, "ttis           %d (%d RB allocations, %d used RB-TTIs, %d served bits)\n",
		a.TTIs, a.AllocRBs, a.UsedRBs, a.ServedBits)
	if a.Decisions == 0 {
		fmt.Fprintln(w, "decisions      none (not an ε-relaxation scheduler, or tracing started late)")
	} else {
		fmt.Fprintf(w, "decisions      %d records, %d overrides (%.2f%%), mean candidate set %.2f\n",
			a.Decisions, a.Overrides,
			100*float64(a.Overrides)/float64(a.Decisions), a.CandMean)
		fmt.Fprintf(w, "SE sacrifice   %.6f mean relative metric loss per decision (§5.4)\n", a.SacrificeMean)
		fmt.Fprintf(w, "override lvls  %v (by winning MLFQ level)\n", a.OverridesByLevel)
	}
	fmt.Fprintf(w, "spectral eff   %.6f bit/s/Hz over %d samples (trace replay)\n", a.MeanSE, a.Samples)
	fmt.Fprintf(w, "fairness       %.6f (Jain, trace replay)\n", a.MeanFairness)
	if a.MeanActiveSE > 0 {
		fmt.Fprintf(w, "active SE      %.6f bit/s/Hz over used RBs\n", a.MeanActiveSE)
	}
}

func flow(w io.Writer, events []obs.Event, id string) error {
	for _, f := range obs.Timelines(events) {
		if f.Flow != id {
			continue
		}
		fmt.Fprintf(w, "flow %s  ue=%d size=%d\n", f.Flow, f.UE, f.Size)
		if f.End >= 0 {
			fmt.Fprintf(w, "  completed in %v", f.FCT)
			if r, ok := f.Residency(); ok {
				fmt.Fprintf(w, "  (ingress %v, air %v, drain %v)", r.Ingress, r.Air, r.Drain)
			}
			fmt.Fprintln(w)
		} else {
			fmt.Fprintln(w, "  incomplete within trace")
		}
		for _, ev := range f.Events {
			fmt.Fprintf(w, "  %12v  %-10s", ev.T, ev.Type)
			switch ev.Type {
			case obs.EvMLFQ:
				fmt.Fprintf(w, " level=%d sent=%d threshold=%d", ev.Level, ev.Sent, ev.Threshold)
			case obs.EvPDCPSN, obs.EvDeliver:
				fmt.Fprintf(w, " sn=%d", ev.SN)
			case obs.EvFlowEnd:
				fmt.Fprintf(w, " fct=%v", ev.FCT)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("flow %q not in trace", id)
}

func slow(w io.Writer, events []obs.Event, n int) {
	tl := obs.SlowestFlows(obs.Timelines(events), n)
	if len(tl) == 0 {
		fmt.Fprintln(w, "no completed flows in trace")
		return
	}
	fmt.Fprintf(w, "%-40s %6s %12s %12s %12s %12s %5s\n",
		"flow", "ue", "fct", "ingress", "air", "drain", "level")
	for _, f := range tl {
		r, ok := f.Residency()
		if !ok {
			fmt.Fprintf(w, "%-40s %6d %12v %12s %12s %12s %5d\n",
				f.Flow, f.UE, f.FCT, "-", "-", "-", f.FinalLevel)
			continue
		}
		fmt.Fprintf(w, "%-40s %6d %12v %12v %12v %12v %5d\n",
			f.Flow, f.UE, f.FCT, r.Ingress, r.Air, r.Drain, f.FinalLevel)
	}
}
