// Command outran-vet runs the repository's determinism and hot-path
// contract analyzer suite (internal/analysis) over the module:
//
//	go run ./cmd/outran-vet ./...
//
// It prints one line per finding and exits 1 when anything is flagged
// or fails, 2 on a command line it cannot parse, and 0 on a clean tree —
// the contract the CI gate relies on. Arguments
// are accepted for `go vet`-style invocation symmetry, but the suite
// always analyzes the whole module enclosing the working directory:
// determinism and allocation discipline are whole-program properties.
//
// Beyond the AST passes, outran-vet drives the compiler's own escape
// analysis over every `//outran:allocfree` function (disable with
// -escape=false when a toolchain is unavailable), and polices the
// `//outran:` directive inventory against a committed baseline:
//
//	go run ./cmd/outran-vet -json report.json ./...
//	go run ./cmd/outran-vet -baseline VET_BASELINE.json ./...
//	go run ./cmd/outran-vet -write-baseline VET_BASELINE.json
//
// The baseline pins which files carry which justifications and
// annotations; adding a suppression anywhere fails the gate until the
// baseline is regenerated and the diff reviewed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"outran/internal/analysis"
	"outran/internal/cli"
)

// report is the machine-readable -json output: what ran, what it
// found, and the directive inventory it observed.
type report struct {
	Analyzers  []analyzerInfo            `json:"analyzers"`
	Findings   []findingJSON             `json:"findings"`
	Directives map[string]map[string]int `json:"directives"`
	Baseline   *baselineResult           `json:"baseline,omitempty"`
}

type analyzerInfo struct {
	Name      string `json:"name"`
	Doc       string `json:"doc"`
	Directive string `json:"directive,omitempty"`
}

type findingJSON struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type baselineResult struct {
	Path  string   `json:"path"`
	Match bool     `json:"match"`
	Diffs []string `json:"diffs,omitempty"`
}

func main() { cli.Main(run) }

// run is the whole program: flags -> load the module enclosing the
// working directory -> analyze -> report. Findings and a baseline
// mismatch are an error, like any failure to load or write.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("outran-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	escape := fs.Bool("escape", true, "run the compiler escape-analysis check over //outran:allocfree functions")
	jsonOut := fs.String("json", "", "write a machine-readable report to `file` ('-' for stdout)")
	baseline := fs.String("baseline", "", "compare the //outran: directive inventory against baseline `file`")
	writeBaseline := fs.String("write-baseline", "", "regenerate baseline `file` from the tree and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: outran-vet [-list] [-escape=false] [-json file] [-baseline file] [-write-baseline file] [./...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", cli.ErrUsage, err)
	}

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-12s %s\n", "escape", "drives go build -gcflags='-m -l' over //outran:allocfree functions (disable with -escape=false)")
		return nil
	}

	wd, err := os.Getwd()
	if err != nil {
		return fmt.Errorf("outran-vet: %w", err)
	}
	pkgs, err := analysis.LoadModule(wd)
	if err != nil {
		return fmt.Errorf("outran-vet: %w", err)
	}
	inventory := analysis.DirectiveInventory(wd, pkgs)

	if *writeBaseline != "" {
		data, err := json.MarshalIndent(inventory, "", "  ")
		if err != nil {
			return fmt.Errorf("outran-vet: %w", err)
		}
		if err := os.WriteFile(*writeBaseline, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("outran-vet: %w", err)
		}
		fmt.Fprintf(stderr, "outran-vet: wrote %s (%d files with directives)\n", *writeBaseline, len(inventory))
		return nil
	}

	findings := analysis.RunAnalyzers(pkgs, analyzers)
	if *escape {
		ef, err := analysis.RunEscapeCheck(wd, pkgs)
		if err != nil {
			return fmt.Errorf("outran-vet: %w", err)
		}
		findings = append(findings, ef...)
	}

	var blResult *baselineResult
	if *baseline != "" {
		blResult = compareBaseline(*baseline, inventory)
	}

	rep := report{Directives: inventory}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, analyzerInfo{Name: a.Name, Doc: a.Doc, Directive: a.Directive})
	}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, findingJSON{
			Analyzer: f.Analyzer,
			File:     relPath(wd, f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
		})
	}
	rep.Baseline = blResult

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("outran-vet: %w", err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return fmt.Errorf("outran-vet: %w", err)
		}
	}

	for _, f := range rep.Findings {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
	}
	var failed []string
	if len(findings) > 0 {
		failed = append(failed, fmt.Sprintf("%d finding(s)", len(findings)))
	}
	if blResult != nil && !blResult.Match {
		for _, d := range blResult.Diffs {
			fmt.Fprintln(stderr, "outran-vet: baseline:", d)
		}
		failed = append(failed, fmt.Sprintf("directive inventory differs from %s; review and regenerate with -write-baseline", *baseline))
	}
	if len(failed) > 0 {
		return fmt.Errorf("outran-vet: %s", strings.Join(failed, "; "))
	}
	return nil
}

// compareBaseline diffs the observed inventory against the committed
// baseline, reporting per-file per-directive count changes.
func compareBaseline(path string, got map[string]map[string]int) *baselineResult {
	res := &baselineResult{Path: path, Match: true}
	data, err := os.ReadFile(path)
	if err != nil {
		res.Match = false
		res.Diffs = []string{fmt.Sprintf("cannot read baseline: %v", err)}
		return res
	}
	var want map[string]map[string]int
	if err := json.Unmarshal(data, &want); err != nil {
		res.Match = false
		res.Diffs = []string{fmt.Sprintf("cannot parse baseline: %v", err)}
		return res
	}
	files := map[string]bool{}
	for f := range got {
		files[f] = true
	}
	for f := range want {
		files[f] = true
	}
	var sortedFiles []string
	for f := range files {
		sortedFiles = append(sortedFiles, f)
	}
	sort.Strings(sortedFiles)
	for _, f := range sortedFiles {
		names := map[string]bool{}
		for n := range got[f] {
			names[n] = true
		}
		for n := range want[f] {
			names[n] = true
		}
		var sortedNames []string
		for n := range names {
			sortedNames = append(sortedNames, n)
		}
		sort.Strings(sortedNames)
		for _, n := range sortedNames {
			g, w := got[f][n], want[f][n]
			if g != w {
				res.Match = false
				res.Diffs = append(res.Diffs, fmt.Sprintf("%s: //outran:%s count %d, baseline has %d", f, n, g, w))
			}
		}
	}
	return res
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return filepath.ToSlash(rel)
	}
	return path
}
