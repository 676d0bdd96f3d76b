package probetest

import (
	"reflect"
	"testing"
)

// TestTaggedFuncs checks the parser-only annotation enumeration the
// AllocsPerRun suites build their probe registries from.
func TestTaggedFuncs(t *testing.T) {
	got, err := TaggedFuncs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"(*ring).grow", "hot", "ring.Len"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TaggedFuncs = %v, want %v", got, want)
	}
	if _, err := TaggedFuncs("no-such-dir"); err == nil {
		t.Error("TaggedFuncs on a missing directory returned no error")
	}
}

// TestCoverageDiff checks the probe-registry reconciliation used by
// the per-package zero-alloc suites, including the stale probe a
// misspelt annotation leaves behind.
func TestCoverageDiff(t *testing.T) {
	unprobed, stale, err := CoverageDiff("testdata", []string{"hot", "typo", "(*ring).grow", "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ring.Len"}; !reflect.DeepEqual(unprobed, want) {
		t.Errorf("unprobed = %v, want %v", unprobed, want)
	}
	if want := []string{"bogus", "typo"}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
	unprobed, stale, err = CoverageDiff("testdata", []string{"(*ring).grow", "hot", "ring.Len"})
	if err != nil {
		t.Fatal(err)
	}
	if len(unprobed) != 0 || len(stale) != 0 {
		t.Errorf("exact match reported unprobed=%v stale=%v", unprobed, stale)
	}
}
