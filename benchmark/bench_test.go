package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

const benchmarkJSON = "../BENCHMARK.json"

// spec mirrors BENCHMARK.json's schema, key order included.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// wantSpec is BENCHMARK.json as the program's tables define it.
func wantSpec() spec {
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		s.EndToEnd = append(s.EndToEnd, specMetric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{d.name, d.unit, d.better, nil})
	}
	return s
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's workload
// and metric tables from drifting apart, and holds both to the
// contract's limits. `go test ./benchmark -run BenchmarkJSON -update`
// regenerates the file.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(benchmarkJSON, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run `go test ./benchmark -run BenchmarkJSON -update`")
	}

	s := wantSpec()
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q outside the contract's syntax", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		name(m.Name)
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q outside the contract's syntax", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; got %+v", d)
	}
	for _, d := range endToEnd {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// TestQuickRun runs every workload end to end on a twentieth of its
// horizon and checks what the driver would see: exactly the catalogued
// names, once each, with a unit and a finite value, in both phases; a
// well-formed span tree; and every output check passing — among them
// that two passes on one seed give the same sim_digest.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := runOpts{seed: 1, seconds: passSeconds, phase: -1, quick: true, scratch: t.TempDir()}
			res, log, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for phase, defs := range map[int][]metricDef{0: endToEnd, 1: perLayer} {
				line := report(res, phase, true)
				if len(line.Metrics) != len(defs) {
					t.Errorf("phase %d: %d metrics reported, catalogue has %d", phase, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := line.Metrics[d.name]
					if !ok {
						t.Errorf("phase %d: %s not reported", phase, d.name)
						continue
					}
					if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("phase %d: %s = %v %q, want a finite value in %q", phase, d.name, v.Value, v.Unit, d.unit)
					}
					if phase == 0 && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.name)
					}
				}
				if line.Attempted < 1 || line.Failed < 0 || !line.Correct {
					t.Errorf("phase %d: attempted %d failed %d correct %v", phase, line.Attempted, line.Failed, line.Correct)
				}
			}
			if err := log.validate(); err != nil {
				t.Error(err)
			}
			roots := map[string]int{}
			for i, self := range log.selfNs() {
				if self < 0 {
					t.Errorf("span %d: self time %d < 0", i+1, self)
				}
				if s := log.spans[i]; s.Parent == 0 {
					roots[s.Pass]++
				}
			}
			for pass, n := range roots {
				if n != 1 {
					t.Errorf("pass %q has %d roots", pass, n)
				}
			}
		})
	}
}

func TestSpanValidate(t *testing.T) {
	ok := &spanLog{spans: []span{
		{ID: 1, Pass: "p", Name: "pass", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Pass: "p", Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Pass: "p", Name: "b", StartNs: 40, EndNs: 90},
	}}
	if err := ok.validate(); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
	if self := ok.selfNs(); self[0] != 20 || self[1] != 30 {
		t.Errorf("self times %v, want [20 30 50]", self)
	}
	for name, spans := range map[string][]span{
		"child outside parent": {{ID: 1, Pass: "p", EndNs: 10}, {ID: 2, Parent: 1, Pass: "p", StartNs: 5, EndNs: 20}},
		"two roots":            {{ID: 1, Pass: "p", EndNs: 10}, {ID: 2, Pass: "p", StartNs: 10, EndNs: 20}},
		"overlapping children": {{ID: 1, Pass: "p", EndNs: 10}, {ID: 2, Parent: 1, Pass: "p", EndNs: 8}, {ID: 3, Parent: 1, Pass: "p", StartNs: 2, EndNs: 10}},
		"unclosed":             {{ID: 1, Pass: "p", StartNs: 10, EndNs: 0}},
	} {
		if err := (&spanLog{spans: spans}).validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQuartiles pins the quartile helper to Python's
// statistics.quantiles(v, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	run := func(seed uint64, wall, p99 float64) result {
		return result{Workload: "w", Seed: seed, Seconds: 20, Timed: &timedResult{
			EndToEnd: map[string]float64{"wall_ns_per_cell_tti": wall, "fct_short_p99_ms": p99},
		}}
	}
	set := func(scale, noise, p99 float64) []result {
		var rs []result
		for i := 0; i < 10; i++ {
			rs = append(rs, run(uint64(i), scale*(100+noise*float64(i%5-2)), p99*float64(1+i)))
		}
		return rs
	}
	wall := metricDef{name: "wall_ns_per_cell_tti", better: "lower", bound: 0.10, kind: "host"}
	p99 := metricDef{name: "fct_short_p99_ms", better: "lower", bound: 0.25, kind: "sim"}
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur []result
		want      string
	}{
		{"host within noise", wall, set(1, 1, 50), set(1.01, 1, 50), "same"},
		{"host regressed", wall, set(1, 1, 50), set(1.2, 1, 50), "worse"},
		{"host improved", wall, set(1, 1, 50), set(0.8, 1, 50), "better"},
		{"host too noisy", wall, set(1, 12, 50), set(1.02, 12, 50), "unresolved"},
		{"sim identical per seed despite a wide spread across seeds", p99, set(1, 1, 50), set(1.3, 1, 50), "same (exact)"},
		{"sim moved", p99, set(1, 1, 50), set(1, 1, 80), "worse"},
	} {
		if got := compareMetric(c.d, c.base, c.cur).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
