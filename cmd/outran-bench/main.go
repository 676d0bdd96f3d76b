// Command outran-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	outran-bench [-scale 0.5] [-seed 1] [-ues 30] [-rbs 50] [-flows 2000] <id>...
//	outran-bench list
//	outran-bench all
//
// Each id is a table/figure from the paper (fig3, fig4, fig7, fig8,
// fig12, fig13, fig14, fig15, fig16, fig17, fig18a-d, fig19, fig20,
// table1, table2). See DESIGN.md for the per-experiment index. `chaos`
// is the fault-injection sweep; an invariant violation makes it exit 1.
// Every data point pools -flows flows (default 10 000, the paper's
// sample) over its seeds, and each run's arrival window is sized to
// offer its share at the point's load.
// A negative -seeds, -ues, -rbs, -flows, -scale or -parallel is a usage
// error (exit 2). The simulator's own speed is measured by benchmark/ (bash
// benchmark/run.sh), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"outran/internal/cli"
	"outran/internal/experiments"
)

func main() { cli.Main(run) }

// run is the whole program: flags -> experiments.Options -> each id's
// harness -> its tables on stdout. Both profiles are finished on every
// return path, so a failed run still leaves readable pprof files.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("outran-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 1, "scale factor for UEs and flows (benches use <1)")
	seed := fs.Uint64("seed", 1, "simulation seed")
	seeds := fs.Int("seeds", 0, "repetitions aggregated per data point, honoured at any -scale (0 = 2, or 1 below -scale 1)")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	ues := fs.Int("ues", 0, "override UE count (0 = experiment default)")
	rbs := fs.Int("rbs", 0, "override resource blocks (0 = experiment default)")
	flows := fs.Int("flows", 0, "flows pooled per data point, before -scale (0 = 10000)")
	parallel := fs.Int("parallel", 0, "max runs executing concurrently (0 = GOMAXPROCS); never changes results")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: outran-bench [flags] <experiment-id>... | all | list")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}
	// A negative size would make a sweep run nothing and report it clean.
	for _, name := range []string{"seeds", "ues", "rbs", "flows", "scale", "parallel"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("%w: -%s %s is negative", cli.ErrUsage, name, v)
		}
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return fmt.Errorf("%w: no experiment id", cli.ErrUsage)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			if perr := writeHeapProfile(*memProfile); err == nil {
				err = perr
			}
		}()
	}
	opt := experiments.Options{
		UEs:     *ues,
		RBs:     *rbs,
		Seed:    *seed,
		Flows:   *flows,
		Seeds:   *seeds,
		Scale:   *scale,
		Workers: *parallel,
	}
	switch ids[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	case "all":
		ids = experiments.IDs()
	}
	for _, id := range ids {
		f, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("%w: unknown experiment %q (try 'outran-bench list')", cli.ErrUsage, id)
		}
		// Wall clock: progress timer for the operator; never enters results
		start := time.Now()
		// An experiment may fail after building its tables (a chaos
		// sweep that saw a violation); they are printed all the same.
		tables, err := f(opt)
		for _, t := range tables {
			t.Fprint(stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, id, t); err != nil {
					return fmt.Errorf("%s: csv: %w", id, err)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		// Wall clock: progress timer for the operator; never enters results
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSV(dir, id string, t experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+"-"+t.Slug()+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
