package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"outran/internal/cli"
	"outran/internal/experiments"
)

// benchRun runs outran-bench in-process and returns its stdout.
func benchRun(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("outran-bench %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// tables drops the "[id completed in 1.2s]" progress lines, the only
// wall-clock bytes outran-bench prints.
func tables(out []byte) []byte {
	var kept []byte
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("[")) {
			kept = append(kept, line...)
		}
	}
	return kept
}

// TestGolden pins the tables of every deterministic id, each section at
// one worker and at the default. scale025.golden holds the bytes the
// binary printed before it took the run() shape; the other sections
// were recorded on the harnesses as they stood before the figures moved
// onto one run pool. The flag sets are the cheapest that keep each
// harness doing its real work: -rbs 15 shrinks the LTE cells, the 5G
// figures size their windows by flow count and so ignore it, and the
// multi-seed section is the one that exercises the seed fold. fig13,
// fig14 and capacity print wall-clock measurements and are left out.
// amd64 only: other targets may fuse float operations differently.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, sec := range []struct {
		golden string
		args   []string
	}{
		{"scale025.golden", []string{"-scale", "0.25", "table1", "fig3", "fig7", "fig18c", "diurnal", "warmstart", "chaos"}},
		{"scale01.golden", []string{"-scale", "0.1", "-rbs", "15", "audit", "deployment", "fig4", "fig8", "fig12",
			"fig15", "fig16", "fig18a", "fig18b", "fig18d", "table2"}},
		{"scale01-5g.golden", []string{"-scale", "0.1", "fig17", "fig20"}},
		{"seeds2.golden", []string{"-ues", "6", "-rbs", "25", "-dur", "1s", "-seeds", "2", "fig7", "fig18c", "fig19"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", sec.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range [][]string{{"-parallel", "1"}, nil} {
			args := append(append([]string(nil), workers...), sec.args...)
			if got := tables(benchRun(t, args...)); !bytes.Equal(got, want) {
				t.Errorf("outran-bench %s differs from testdata/%s:\n%s", strings.Join(args, " "), sec.golden, got)
			}
		}
	}
}

func TestList(t *testing.T) {
	want := strings.Join(experiments.IDs(), "\n") + "\n"
	if got := string(benchRun(t, "list")); got != want {
		t.Errorf("list printed %q, want %q", got, want)
	}
}

// TestProfilesFlushedOnError: an unknown id is a usage error (exit
// status 2) and still leaves both profiles complete on disk.
func TestProfilesFlushedOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "table1", "fig99"}, io.Discard, io.Discard)
	if !errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), `"fig99"`) {
		t.Fatalf("unknown id: err = %v, want a usage error naming it", err)
	}
	for _, prof := range []string{cpu, mem} {
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("profile not flushed: %v, %v", st, err)
		}
	}
}

// TestNegativeSizes: a negative size flag is a usage error (exit
// status 2); before, -seeds -1 made chaos run nothing and report clean,
// and -parallel -2 ran on GOMAXPROCS.
func TestNegativeSizes(t *testing.T) {
	for _, neg := range [][]string{
		{"-seeds", "-1"},
		{"-ues", "-4"},
		{"-rbs", "-25"},
		{"-dur", "-1s"},
		{"-scale", "-0.5"},
		{"-parallel", "-2"},
	} {
		args := append(neg, "chaos")
		if err := run(args, io.Discard, io.Discard); !errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), neg[0]+" "+neg[1]) {
			t.Errorf("outran-bench %s: err = %v, want a usage error naming the flag", strings.Join(args, " "), err)
		}
	}
}
