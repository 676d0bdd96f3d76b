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

// TestGolden pins the tables of seven deterministic ids at -scale 0.25
// to the bytes the binary printed before it took the run() shape, at
// one worker and at the default. amd64 only: other targets may fuse
// float operations differently.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64, running on %s", runtime.GOARCH)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "scale025.golden"))
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"table1", "fig3", "fig7", "fig18c", "diurnal", "warmstart", "chaos"}
	for _, workers := range [][]string{{"-parallel", "1"}, nil} {
		args := append(append([]string{"-scale", "0.25"}, workers...), ids...)
		if got := tables(benchRun(t, args...)); !bytes.Equal(got, want) {
			t.Errorf("outran-bench %s differs from testdata/scale025.golden:\n%s", strings.Join(args, " "), got)
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
// status 2); before, -seeds -1 made chaos run nothing and report clean.
func TestNegativeSizes(t *testing.T) {
	for _, neg := range [][]string{
		{"-seeds", "-1"},
		{"-ues", "-4"},
		{"-rbs", "-25"},
		{"-dur", "-1s"},
		{"-scale", "-0.5"},
	} {
		args := append(neg, "chaos")
		if err := run(args, io.Discard, io.Discard); !errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), neg[0]+" "+neg[1]) {
			t.Errorf("outran-bench %s: err = %v, want a usage error naming the flag", strings.Join(args, " "), err)
		}
	}
}
