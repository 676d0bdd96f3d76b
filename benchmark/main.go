// Command benchmark is the repository's benchmark: five workloads run
// through the simulator's public entry points, reporting host numbers
// (wall clock and memory: noisy, so medians of repetitions) and sim
// numbers (simulated time and counters: they repeat exactly for a seed,
// so any movement at equal seed is a behaviour change, not noise). BENCHMARK.json at the repository root
// names the workloads and metrics; README.md beside this file explains
// them.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-json out.json] [-trace-out spans.json]
//	go run ./benchmark compare <base-dir> <new-dir>
//
// With -trace 0 only the timed phase runs (end-to-end metrics), with
// -trace 1 only the span-traced phase (per-layer metrics); without the
// flag both run. The last line of standard output is one JSON object
// holding the metrics of the selected phase.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// result is everything one workload run produced; -json writes it and
// compare reads it.
type result struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Seconds  int           `json:"seconds"`
	Quick    bool          `json:"quick,omitempty"`
	Machine  machine       `json:"machine"`
	Timed    *timedResult  `json:"timed,omitempty"`
	Traced   *tracedResult `json:"traced,omitempty"`
}

// machine records the host facts a result was measured on.
type machine struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu,omitempty"`
}

// reportLine is the last line of standard output: the acceptance
// driver's contract.
type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOpts are one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds int
	phase   int // 0 timed only, 1 traced only, -1 both
	quick   bool
	scratch string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "traffic seed: the same seed gives the same offered flows")
	seconds := flag.Int("seconds", defaultSeconds, "timed-phase length; buys seconds/4 passes")
	phase := flag.Int("trace", -1, "0: timed phase only (end-to-end metrics); 1: span-traced phase only (per-layer metrics); default both")
	quick := flag.Bool("quick", false, "divide every horizon by 20 (smoke runs and tests)")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for the deployment workload's KPI stream and checkpoints")
	jsonOut := flag.String("json", "", "write the full result to this file (a directory when -workload all)")
	spansOut := flag.String("trace-out", "", "write the traced phase's spans to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var defs []workloadDef
	if *name == "all" {
		defs = workloads
	} else if w, ok := findWorkload(*name); ok {
		defs = []workloadDef{w}
	} else {
		fatalf("unknown workload %q", *name)
	}
	o := runOpts{seed: *seed, seconds: *seconds, phase: *phase, quick: *quick, scratch: *scratch}
	ok := true
	for _, w := range defs {
		fmt.Println("==", w)
		res, log, err := runWorkload(w, o)
		printResult(os.Stdout, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %v\n", w.name, err)
			ok = false
		}
		if *jsonOut != "" {
			path := *jsonOut
			if len(defs) > 1 {
				path = filepath.Join(*jsonOut, w.name+".json")
			}
			res.Machine.CPU = cpuModel()
			if werr := writeJSON(path, res); werr != nil {
				fatalf("%v", werr)
			}
		}
		if *spansOut != "" && log != nil {
			path := *spansOut
			if len(defs) > 1 {
				path = strings.TrimSuffix(path, ".json") + "." + w.name + ".json"
			}
			if werr := log.write(path, w.name, o.seed); werr != nil {
				fatalf("%v", werr)
			}
		}
		line, _ := json.Marshal(report(res, o.phase, err == nil))
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}

// runWorkload runs the selected phases of one workload. On a failed
// check it returns what was measured so far together with the error.
func runWorkload(w workloadDef, o runOpts) (result, *spanLog, error) {
	res := result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Quick: o.quick,
		Machine: machine{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version()},
	}
	reps := setupReps
	if o.quick {
		w, reps = w.quick(20), 3
	}
	e := env{workers: runtime.GOMAXPROCS(0), scratch: o.scratch}
	if o.phase != 1 {
		t, err := runTimed(w, e, o.seed, passCount(o.seconds), reps)
		res.Timed = &t
		if err != nil {
			return res, nil, err
		}
	}
	var log *spanLog
	if o.phase != 0 {
		log = newSpanLog()
		t, err := runTraced(w, e, o.seed, o.quick, log)
		res.Traced = &t
		if err != nil {
			return res, log, err
		}
	}
	return res, log, nil
}

// report builds the driver's result line: the end-to-end metrics of
// the timed phase, or with -trace 1 the per-layer metrics.
func report(res result, phase int, correct bool) reportLine {
	line := reportLine{Correct: correct, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, map[string]float64(nil)
	if phase == 1 {
		defs = perLayer
		if res.Traced != nil {
			vals = res.Traced.PerLayer
			line.Attempted, line.Failed = res.Traced.Attempted, res.Traced.Failed
		}
	} else if res.Timed != nil {
		vals = res.Timed.EndToEnd
		line.Attempted, line.Failed = res.Timed.Attempted, res.Timed.Failed
	}
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return line
}

// printResult prints every metric by name with its unit, host and sim
// numbers marked as such.
func printResult(out *os.File, res result) {
	fmt.Fprintf(out, "-- %s seed=%d seconds=%d\n", res.Workload, res.Seed, res.Seconds)
	if t := res.Timed; t != nil && t.EndToEnd != nil {
		fmt.Fprintf(out, "-- end to end (%d timed passes, tracing off; host = noisy, sim = exact for the seed)\n", t.Passes)
		printMetrics(out, endToEnd, t.EndToEnd)
		fmt.Fprintf(out, "-- not bounded (too unsteady across seeds; exact at equal seed)\n")
		printMetrics(out, timedInfo, t.Info)
		fmt.Fprintf(out, "%-36s %14d flows (sum over passes, about %d behind each pass's percentiles)\n", "fct_short_samples", t.ShortSamples, t.ShortSamples/t.Passes)
		fmt.Fprintf(out, "%-36s %14d flows\n%-36s %14d flows\n", "ops_attempted", t.Attempted, "ops_failed", t.Failed)
		fmt.Fprintf(out, "%-36s %14.4f ratio  host\n", "wall_spread", t.WallSpread)
		fmt.Fprintf(out, "%-36s %s\n%-36s %s\n", "sim_digest", t.SimDigest, "workload_digest", t.WorkloadDigest)
	}
	if t := res.Traced; t != nil && t.PerLayer != nil {
		fmt.Fprintf(out, "-- per layer (span-traced run on the seed's first sub-seed)\n")
		printMetrics(out, perLayer, t.PerLayer)
		fmt.Fprintf(out, "%-36s %14d flows\n%-36s %14d flows\n", "ops_attempted", t.Attempted, "ops_failed", t.Failed)
		fmt.Fprintf(out, "%-36s %s\n%-36s %s\n", "sim_digest", t.SimDigest, "workload_digest", t.WorkloadDigest)
	}
}

func printMetrics(out *os.File, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(out, "%-36s %14.6g %-9s %s\n", d.name, v, d.unit, d.kind)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// cpuModel is the host's CPU model name for the baseline records, ""
// where /proc/cpuinfo does not say.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}
