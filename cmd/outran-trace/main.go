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
	"sort"
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
	switch cmd {
	case "kpi": // its own JSONL schema, not an event trace
		return kpi(stdout, f)
	case "summary":
		return summary(stdout, f)
	case "audit":
		return audit(stdout, f)
	case "flow":
		return flow(stdout, f, args[1])
	default:
		return slow(stdout, f, n)
	}
}

func printMeta(w io.Writer, meta *obs.Event) {
	if meta.Type == "" {
		fmt.Fprintln(w, "run            (no meta event in trace)")
		return
	}
	fmt.Fprintf(w, "run            %s, %d UEs, %d RBs, seed %d, TTI %v, sample period %d TTIs\n",
		meta.Sched, meta.UEs, meta.RBs, meta.Seed, meta.TTINanos, meta.SamplePeriod)
}

// sinkFunc is a fold written as one function.
type sinkFunc func(ev *obs.Event)

func (f sinkFunc) Emit(ev *obs.Event) { f(ev) }
func (sinkFunc) Close() error         { return nil }

// summary folds the first meta event, the flow spans, the count of each
// event type and the checkpoint writes: the highest write count, the
// last snapshot's size, and the first and last write times.
func summary(w io.Writer, r io.Reader) error {
	var flows obs.Flows
	var meta obs.Event
	counts := make(map[string]int)
	var ckN, ckSize int64
	var ckFirst, ckLast sim.Time
	err := obs.ReadTrace(r, sinkFunc(func(ev *obs.Event) {
		flows.Emit(ev)
		counts[ev.Type]++
		switch ev.Type {
		case obs.EvMeta:
			if meta.Type == "" {
				meta = *ev
			}
		case obs.EvCheckpoint:
			ckN, ckSize = max(ckN, ev.Sent), ev.Size
			if ckFirst == 0 {
				ckFirst = ev.T
			}
			ckLast = ev.T
		}
	}))
	if err != nil {
		return err
	}
	printMeta(w, &meta)
	completed := 0
	var res obs.Residency
	withRes := 0
	for _, f := range flows.List {
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
	fmt.Fprintf(w, "flows          %d seen, %d completed\n", len(flows.List), completed)
	if ckN > 0 {
		cadence := ckFirst
		if ckN > 1 {
			cadence = (ckLast - ckFirst) / sim.Time(ckN-1)
		}
		fmt.Fprintf(w, "checkpoints    %d written, every %v, last snapshot %d bytes\n", ckN, cadence, ckSize)
	}
	if withRes > 0 {
		n := sim.Time(withRes)
		fmt.Fprintf(w, "residency      ingress %v  air %v  drain %v (mean over %d flows)\n",
			res.Ingress/n, res.Air/n, res.Drain/n, withRes)
	}
	fmt.Fprintln(w, "events:")
	types := make([]string, 0, len(counts))
	// Order-free: types are sorted before use
	for typ := range counts {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		fmt.Fprintf(w, "  %-14s %d\n", typ, counts[typ])
	}
	return nil
}

func audit(w io.Writer, r io.Reader) error {
	var a obs.Audit
	if err := obs.ReadTrace(r, &a); err != nil {
		return err
	}
	printMeta(w, &a.Meta)
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
	return nil
}

// flow folds the named flow's span and keeps its events.
func flow(w io.Writer, r io.Reader, id string) error {
	var span obs.Flows
	events := obs.NewRingSink(0)
	err := obs.ReadTrace(r, sinkFunc(func(ev *obs.Event) {
		if ev.Flow != "" && ev.Flow == id {
			span.Emit(ev)
			events.Emit(ev)
		}
	}))
	if err != nil {
		return err
	}
	if len(span.List) == 0 {
		return fmt.Errorf("flow %q not in trace", id)
	}
	f := span.List[0]
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
	for _, ev := range events.Events() {
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

func slow(w io.Writer, r io.Reader, n int) error {
	var fl obs.Flows
	if err := obs.ReadTrace(r, &fl); err != nil {
		return err
	}
	tl := obs.SlowestFlows(fl.List, n)
	if len(tl) == 0 {
		fmt.Fprintln(w, "no completed flows in trace")
		return nil
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
	return nil
}
