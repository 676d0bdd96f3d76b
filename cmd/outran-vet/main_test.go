package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outran/internal/cli"
)

// inModule runs the rest of the test from testdata/<name>, a fixture
// module: outran-vet analyzes the module enclosing the working
// directory. It returns the absolute testdata directory.
func inModule(t *testing.T, name string) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", name)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	return filepath.Join(wd, "testdata")
}

// TestFindings runs the whole suite, escape check included, over the
// fixture module with known findings. The text report and the -json
// report must equal what the outran-vet before run() printed for the
// same tree (testdata/findings.golden.*, recorded from that binary), and
// the run must fail with exit status 1, not 2.
func TestFindings(t *testing.T) {
	testdata := inModule(t, "findings")
	report := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-json", report, "./..."}, &stdout, &stderr)
	if err == nil || errors.Is(err, cli.ErrUsage) {
		t.Fatalf("run = %v, want a findings error (exit status 1)\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(err.Error(), "3 finding(s)") {
		t.Errorf("error %q does not count the 3 findings", err)
	}
	for _, c := range []struct {
		golden string
		got    func() []byte
	}{
		{"findings.golden.txt", stdout.Bytes},
		{"findings.golden.json", func() []byte {
			b, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	} {
		want, err := os.ReadFile(filepath.Join(testdata, c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.got(); !bytes.Equal(got, want) {
			t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", c.golden, got, want)
		}
	}
}

// TestBaselineRoundTrip: -write-baseline followed by -baseline on the
// same clean tree exits 0; the same baseline against a tree whose
// directives differ fails and names the drift.
func TestBaselineRoundTrip(t *testing.T) {
	bl := filepath.Join(t.TempDir(), "baseline.json")
	inModule(t, "clean")
	if err := run([]string{"-write-baseline", bl}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := run([]string{"-baseline", bl, "./..."}, io.Discard, &stderr); err != nil {
		t.Fatalf("-baseline right after -write-baseline: %v\n%s", err, stderr.String())
	}
	if err := os.Chdir(filepath.Join("..", "findings")); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	err := run([]string{"-escape=false", "-baseline", bl, "./..."}, io.Discard, &stderr)
	if err == nil || errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), "directive inventory differs") {
		t.Fatalf("baseline drift: run = %v, want a baseline mismatch (exit status 1)", err)
	}
	if !strings.Contains(stderr.String(), "internal/sim/clock.go: //outran:allocfree count 1, baseline has 0") {
		t.Errorf("stderr does not name the drifted file:\n%s", stderr.String())
	}
}

// TestUsage: a flag error is cli.ErrUsage (exit status 2); -h is not an
// error at all.
func TestUsage(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, io.Discard); !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("unknown flag: run = %v, want cli.ErrUsage (exit status 2)", err)
	}
	if err := run([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: run = %v, want flag.ErrHelp (exit status 0)", err)
	}
}
