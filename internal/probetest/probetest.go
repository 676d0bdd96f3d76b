// Package probetest wires a package's zero-alloc probe registry to
// its //outran:allocfree annotations. Each hot-path package declares
// a map from annotated function name (as TaggedFuncs renders it, e.g.
// "(*SRJF).Allocate") to an AllocsPerRun probe, and calls Run from a
// single test. Run fails when the registry and the annotations drift
// apart in either direction, so the annotation is the single source of
// truth for which functions are proven allocation-free at runtime.
package probetest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tag is the doc-comment line that marks a function allocation-free in
// steady state.
const tag = "//outran:allocfree"

// Run checks that the keys of probes match the //outran:allocfree
// annotations in dir exactly, then runs every probe as a named
// subtest in sorted order.
func Run(t *testing.T, dir string, probes map[string]func(t *testing.T)) {
	t.Helper()
	names := make([]string, 0, len(probes))
	for n := range probes {
		names = append(names, n)
	}
	slices.Sort(names)
	unprobed, stale, err := CoverageDiff(dir, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(unprobed) > 0 {
		t.Errorf("//outran:allocfree functions without a zero-alloc probe: %v", unprobed)
	}
	if len(stale) > 0 {
		t.Errorf("zero-alloc probes naming no //outran:allocfree function: %v", stale)
	}
	for _, name := range names {
		t.Run(name, probes[name])
	}
}

// CoverageDiff compares names — the keys of a package's zero-alloc
// probe registry — against the functions annotated in dir. unprobed
// lists annotated functions no probe names; stale lists probes naming
// no annotated function (a misspelt annotation shows up here). Both
// empty means the registry and the annotations agree exactly.
func CoverageDiff(dir string, names []string) (unprobed, stale []string, err error) {
	tagged, err := TaggedFuncs(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range names {
		if !slices.Contains(tagged, n) {
			stale = append(stale, n)
		}
	}
	for _, n := range tagged {
		if !slices.Contains(names, n) {
			unprobed = append(unprobed, n)
		}
	}
	slices.Sort(stale)
	return unprobed, stale, nil
}

// TaggedFuncs parses the non-test Go files of dir (no type checking)
// and returns the receiver-qualified names of the functions whose doc
// comment carries the //outran:allocfree line, sorted. Names render as "(*T).M", "T.M" or "F".
func TaggedFuncs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("probetest: parsing %s: %v", name, err)
		}
		for _, decl := range file.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && hasTag(d.Doc) {
				names = append(names, funcName(d))
			}
		}
	}
	slices.Sort(names)
	return names, nil
}

// hasTag reports whether a doc comment has a line that is the tag,
// alone or followed by a rationale.
func hasTag(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == tag || strings.HasPrefix(c.Text, tag+" ") {
			return true
		}
	}
	return false
}

// funcName renders a FuncDecl's receiver-qualified name.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t, star := d.Recv.List[0].Type, false
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, true
	}
	recv := "?" // a generic receiver; no annotated function has one
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	if star {
		recv = "(*" + recv + ")"
	}
	return recv + "." + d.Name.Name
}
