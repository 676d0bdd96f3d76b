package metrics

import (
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot/snapshottest"
)

// TestExactRecorderCapDegrades is the regression gate for the
// unbounded-retention bug: an exact recorder that hits its
// retained-sample cap must fold everything into a streaming
// accumulator and keep answering — with no per-flow retention from
// that point on — instead of growing without bound.
func TestExactRecorderCapDegrades(t *testing.T) {
	samples := paperSamples(DefaultExactCap+1, 11)
	capped := &FCTRecorder{}
	fcts := make([]sim.Time, len(samples)) // reference: the exact estimator over every sample
	for i, s := range samples {
		capped.Record(s)
		fcts[i] = s.FCT
	}

	if !capped.Degraded() {
		t.Fatal("recorder over cap did not degrade")
	}
	if capped.Stream() == nil {
		t.Fatal("degraded recorder has no stream")
	}
	if got := capped.Samples(); got != nil {
		t.Fatalf("degraded recorder retains %d samples, want none", len(got))
	}
	if capped.Completed() != len(samples) {
		t.Fatalf("degraded recorder lost completions: %d, want %d", capped.Completed(), len(samples))
	}

	// Every sample — retained before the cap and recorded after — must
	// be in the stream: count and max exact, mean within float noise,
	// quantiles within the streaming path's documented error budget.
	got, want := capped.Overall(), ComputeStats(fcts)
	if got.Count != want.Count || got.Max != want.Max {
		t.Errorf("degraded stats %+v vs exact %+v", got, want)
	}
	if e := relErr(got.Mean, want.Mean); e > 1e-9 {
		t.Errorf("degraded mean %v vs exact %v (rel %g)", got.Mean, want.Mean, e)
	}
	if e := relErr(got.P99, want.P99); e > 0.05 {
		t.Errorf("degraded p99 %v vs exact %v (rel %g)", got.P99, want.P99, e)
	}
}

// TestExactRecorderCapBoundary: the recorder retains exactly
// DefaultExactCap samples before degrading.
func TestExactRecorderCapBoundary(t *testing.T) {
	var r FCTRecorder
	for i := 0; i < DefaultExactCap; i++ {
		r.Record(FCTSample{Size: 100, FCT: sim.Millisecond})
	}
	if r.Degraded() {
		t.Fatal("recorder degraded at the cap, want at cap+1")
	}
	if len(r.Samples()) != DefaultExactCap {
		t.Fatalf("retained %d samples, want %d", len(r.Samples()), DefaultExactCap)
	}
	r.Record(FCTSample{Size: 100, FCT: sim.Millisecond})
	if !r.Degraded() {
		t.Fatal("recorder past cap did not degrade")
	}
	if r.Completed() != DefaultExactCap+1 {
		t.Fatalf("completed %d, want %d", r.Completed(), DefaultExactCap+1)
	}
}

// TestDegradedRecorderSnapshotRoundTrip: a checkpoint taken after the
// cap degrade must restore onto an exact-constructed recorder (the
// config still says exact) by replaying the degrade, so crash-resume
// continues byte-identically.
func TestDegradedRecorderSnapshotRoundTrip(t *testing.T) {
	r := &FCTRecorder{}
	for _, s := range paperSamples(DefaultExactCap+1, 13) {
		r.Record(s)
	}
	if !r.Degraded() {
		t.Fatal("setup: recorder did not degrade")
	}
	restored := &FCTRecorder{} // exact-constructed, as the config would build it
	snapshottest.RoundTrip(t, r.Walk, restored.Walk)
	if !restored.Degraded() {
		t.Fatal("restored recorder lost the degraded flag")
	}
	if got, want := restored.Overall(), r.Overall(); got != want {
		t.Errorf("restored stats %+v != original %+v", got, want)
	}
	// Recording after restore keeps streaming, never re-retains.
	restored.Record(FCTSample{Size: 100, FCT: sim.Millisecond})
	if restored.Samples() != nil {
		t.Fatal("restored degraded recorder retained a sample")
	}
}

// TestExactRecorderSnapshotRoundTrip: the exact path's snapshot (with
// the new degradation flag in the codec) still round-trips retained
// samples losslessly.
func TestExactRecorderSnapshotRoundTrip(t *testing.T) {
	r := &FCTRecorder{}
	for _, s := range paperSamples(40, 17) {
		r.Record(s)
	}
	restored := &FCTRecorder{}
	snapshottest.RoundTrip(t, r.Walk, restored.Walk)
	if restored.Degraded() {
		t.Fatal("exact snapshot restored as degraded")
	}
	if got, want := restored.Samples(), r.Samples(); len(got) != len(want) {
		t.Fatalf("restored %d samples, want %d", len(got), len(want))
	}
	if got, want := restored.Overall(), r.Overall(); got != want {
		t.Errorf("restored stats %+v != original %+v", got, want)
	}
}
