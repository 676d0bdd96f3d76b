package outran

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryCommandIsTested fails when a package main directory in the
// module has no _test.go file: every program a user can run must have
// a test of its own, or its output can drift unseen.
func TestEveryCommandIsTested(t *testing.T) {
	fset := token.NewFileSet()
	mains := 0
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		isMain, tested := false, false
		for _, e := range entries {
			name := e.Name()
			switch {
			case e.IsDir() || !strings.HasSuffix(name, ".go"):
			case strings.HasSuffix(name, "_test.go"):
				tested = true
			default:
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly)
				if err != nil {
					return err
				}
				isMain = isMain || f.Name.Name == "main"
			}
		}
		if isMain {
			mains++
			if !tested {
				t.Errorf("%s is a package main with no _test.go file", dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mains == 0 {
		t.Fatal("found no package main directory; the walk is broken")
	}
}
