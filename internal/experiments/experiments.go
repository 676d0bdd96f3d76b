// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness builds the workload and cell(s),
// runs the simulation, and returns the same rows/series the paper
// reports, so `outran-bench <id>` regenerates the artifact. Absolute
// numbers differ from the paper (different substrate); EXPERIMENTS.md
// records the shape comparison.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"outran/internal/deploy"
	"outran/internal/metrics"
	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// Options scales the experiments. The defaults reproduce the paper's
// shapes in seconds per run; Full approaches the paper's scale.
type Options struct {
	UEs      int
	RBs      int
	Duration sim.Time
	Drain    sim.Time
	Seed     uint64
	// Seeds is the number of independent repetitions aggregated per
	// data point (heavy-tailed workloads make single runs noisy).
	Seeds int
	// Scale multiplies UEs and Duration; used by the benches to run
	// reduced but shape-preserving versions.
	Scale float64
	// Workers bounds how many independent runs (seeds, deployment
	// cells) execute concurrently; <= 0 means GOMAXPROCS. Results are
	// aggregated in seed order, so the worker count never changes
	// them.
	Workers int
}

// withDefaults fills the standard configuration.
func (o Options) withDefaults() Options {
	if o.UEs == 0 {
		o.UEs = 30
	}
	if o.RBs == 0 {
		o.RBs = 50
	}
	if o.Duration == 0 {
		o.Duration = 20 * sim.Second
	}
	if o.Drain == 0 {
		o.Drain = 15 * sim.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Seeds == 0 {
		o.Seeds = 2
		if o.Scale > 0 && o.Scale < 1 {
			o.Seeds = 1 // a reduced run takes one seed unless asked for more
		}
	}
	if o.Scale > 0 && o.Scale != 1 {
		o.UEs = max(2, int(float64(o.UEs)*o.Scale))
		o.Duration = sim.Time(float64(o.Duration) * o.Scale)
	}
	return o
}

// Table is a printable result artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// WriteCSV renders the table as CSV (header row first).
func (t Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Slug returns a filesystem-friendly name derived from the title.
func (t Table) Slug() string {
	s := strings.ToLower(t.Title)
	var b strings.Builder
	dash := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	out := strings.Trim(b.String(), "-")
	if len(out) > 60 {
		out = out[:60]
	}
	return out
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// runResult is a data point aggregated over opt.Seeds independent runs
// (or, before the fold, one seed's run).
type runResult struct {
	FCT           *metrics.FCTRecorder
	SESamples     []float64
	ActiveSamples []float64
	FairSamples   []float64
	SampleTimes   []sim.Time // first seed's series (time-series tables)
	Stats         ran.Stats
	// ActiveSE is the mean active-resource spectral efficiency (bits
	// per used RB-second-Hz): the radio-efficiency cost of scheduling
	// decisions, insensitive to deferred backlog.
	ActiveSE   float64
	DelayMean  sim.Time
	DelayShort sim.Time
}

// Measurement methodology shared by the harnesses: a warmup transient
// is excluded, FCTs are recorded for flows arriving in the main
// window, and arrivals continue through a pressure tail so the flows
// recorded near the end of the window complete under sustained load
// (steady state, not a draining cell). SE/fairness are sampled over
// the main window only.
const (
	warmup       = 2 * sim.Second
	pressureTail = 8 * sim.Second
)

// point is one data point of a figure: the cell, its workload, and
// the options whose Seed, Duration and Drain its runs take.
type point struct {
	cfg  ran.Config
	spec workload.Spec
	opt  Options
}

// runPoints runs opt.Seeds repetitions of every point, all (point,
// seed) jobs on one worker pool, and folds each point's seeds in seed
// order after the pool drains, so the worker count never changes a
// result. A job reduces its cell to that seed's runResult before it
// returns, so at most opt.Workers cells are alive at once.
func runPoints(opt Options, pts []point) ([]*runResult, error) {
	n := max(opt.Seeds, 1)
	runs := make([]runResult, len(pts)*n)
	err := deploy.ForEach(len(runs), opt.Workers, func(j int) error {
		p := pts[j/n]
		o := p.opt
		o.Seed = p.opt.Seed + uint64(j%n)*1009
		cell, err := harness(p.cfg.WithSeed(o.Seed), p.spec, o).Run()
		if err != nil {
			return err
		}
		tr := cell.Tracker
		runs[j] = runResult{
			FCT:           cell.FCT,
			SESamples:     tr.SpectralEfficiencySamples(),
			ActiveSamples: tr.ActiveSESamples(),
			FairSamples:   tr.FairnessSamples(),
			SampleTimes:   tr.SampleTimes(),
			Stats:         cell.CollectStats(),
			DelayMean:     cell.Delay.Mean(),
			DelayShort:    cell.Delay.MeanShort(),
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: run %w", err)
	}
	out := make([]*runResult, len(pts))
	for i := range out {
		out[i] = fold(runs[i*n : (i+1)*n])
	}
	return out, nil
}

// fold aggregates one point's single-seed runs: FCT samples are
// merged, scalar metrics averaged, counters summed.
func fold(runs []runResult) *runResult {
	agg := &runResult{FCT: &metrics.FCTRecorder{}, SampleTimes: runs[0].SampleTimes}
	var delaySum, delayShortSum, srttSum sim.Time
	for _, r := range runs {
		for _, smp := range r.FCT.Samples() {
			agg.FCT.Record(smp)
		}
		for i := 0; i < r.FCT.Started(); i++ {
			agg.FCT.FlowStarted()
		}
		agg.SESamples = append(agg.SESamples, r.SESamples...)
		agg.ActiveSamples = append(agg.ActiveSamples, r.ActiveSamples...)
		agg.FairSamples = append(agg.FairSamples, r.FairSamples...)
		st := r.Stats
		agg.Stats.BufferDrops += st.BufferDrops
		agg.Stats.DecipherFailures += st.DecipherFailures
		agg.Stats.ReassemblyDrops += st.ReassemblyDrops
		agg.Stats.HARQFailures += st.HARQFailures
		agg.Stats.AMAbandoned += st.AMAbandoned
		agg.Stats.AMRetxBytes += st.AMRetxBytes
		agg.Stats.FlowsStarted += st.FlowsStarted
		agg.Stats.FlowsCompleted += st.FlowsCompleted
		agg.Stats.TTIs += st.TTIs
		srttSum += st.MeanSRTT
		delaySum += r.DelayMean
		delayShortSum += r.DelayShort
	}
	n := sim.Time(len(runs))
	agg.Stats.MeanSpectralEff = metrics.MeanFloat(agg.SESamples)
	agg.ActiveSE = metrics.MeanFloat(agg.ActiveSamples)
	agg.Stats.MeanFairnessIndex = metrics.MeanFloat(agg.FairSamples)
	agg.Stats.MeanSRTT = srttSum / n
	agg.DelayMean = delaySum / n
	agg.DelayShort = delayShortSum / n
	return agg
}

// harness builds one run under the shared method: warmup, opt.Duration
// recorded, pressure tail, then opt.Drain, with the workload seeded
// from opt.Seed.
func harness(cfg ran.Config, spec workload.Spec, opt Options) ran.Harness {
	return ran.Harness{
		Config:       cfg.WithWorkload(spec),
		Warmup:       warmup,
		Window:       opt.Duration,
		Tail:         pressureTail,
		Drain:        opt.Drain,
		WorkloadSeed: opt.Seed + 7919,
	}
}

// baseLTE builds the standard LTE config for an experiment through the
// validated ran.Config path.
func baseLTE(opt Options, sched ran.SchedulerKind) ran.Config {
	return ran.DefaultLTEConfig().
		WithTopology(opt.UEs, opt.RBs).
		ForScheduler(sched).
		WithSeed(opt.Seed)
}

// ms formats a sim.Time in milliseconds.
func ms(t sim.Time) string { return fmt.Sprintf("%.1f", t.Milliseconds()) }

// f3 formats a float with 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// ratio formats a/b with 3 decimals, or "n/a" when b is 0.
func ratio[T float64 | sim.Time](a, b T) string {
	if b == 0 {
		return "n/a"
	}
	return f3(float64(a) / float64(b))
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Func runs one experiment and returns its tables.
type Func func(Options) ([]Table, error)

// registry maps experiment ids to harnesses.
var registry = map[string]Func{}

func register(id string, f Func) { registry[id] = f }

// Lookup resolves an experiment id.
func Lookup(id string) (Func, bool) {
	f, ok := registry[id]
	return f, ok
}

// IDs lists the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// shortP95 is a convenience accessor used by several harnesses.
func shortP95(r *runResult) sim.Time {
	return r.FCT.ByClass(metrics.Short).P95
}

// durationForFlows returns the arrival window needed for roughly
// target flows at the given load — used by the 5G experiments, where
// the much larger capacity means a short window already yields good
// statistics.
func durationForFlows(target int, load, capacityBps, meanFlowBytes float64) sim.Time {
	if load <= 0 || capacityBps <= 0 || meanFlowBytes <= 0 {
		return sim.Second
	}
	rate := load * capacityBps / 8 / meanFlowBytes // flows per second
	d := sim.Time(float64(target) / rate * float64(sim.Second))
	if d < 2*sim.Second {
		d = 2 * sim.Second
	}
	if d > 60*sim.Second {
		d = 60 * sim.Second
	}
	return d
}
