package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSweep is the chaos smoke CI used to run as a shell step: a small
// fault sweep holds every monitor invariant (a violation is an error),
// and the report is the same bytes at one worker and at two.
func TestSweep(t *testing.T) {
	sweep := func(workers string) []byte {
		args := []string{"-seeds", "2", "-dur", "1s", "-ues", "8", "-rbs", "25", "-parallel", workers}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("outran-chaos %s: %v\n%s%s", strings.Join(args, " "), err, stdout.Bytes(), stderr.Bytes())
		}
		return stdout.Bytes()
	}
	one, two := sweep("1"), sweep("2")
	if !bytes.HasSuffix(one, []byte("\nall invariants held\n")) {
		t.Errorf("report does not end with the verdict:\n%s", one)
	}
	if !bytes.Equal(one, two) {
		t.Errorf("report differs between -parallel 1 and 2:\n%s\n%s", one, two)
	}
}
