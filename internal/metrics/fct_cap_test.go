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
	const cap = 100
	samples := paperSamples(5000, 11)

	exact := &FCTRecorder{}
	exact.SetExactCap(-1) // reference: unbounded exact estimator
	capped := &FCTRecorder{}
	capped.SetExactCap(cap)
	for _, s := range samples {
		exact.Record(s)
		capped.Record(s)
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
	got, want := capped.Overall(), exact.Overall()
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

// TestExactRecorderCapBoundary: the recorder retains exactly cap
// samples before degrading, and the default cap applies when none is
// set.
func TestExactRecorderCapBoundary(t *testing.T) {
	r := &FCTRecorder{}
	r.SetExactCap(10)
	for i := 0; i < 10; i++ {
		r.Record(FCTSample{Size: 100, FCT: sim.Millisecond})
	}
	if r.Degraded() {
		t.Fatal("recorder degraded at the cap, want at cap+1")
	}
	if len(r.Samples()) != 10 {
		t.Fatalf("retained %d samples, want 10", len(r.Samples()))
	}
	r.Record(FCTSample{Size: 100, FCT: sim.Millisecond})
	if !r.Degraded() {
		t.Fatal("recorder past cap did not degrade")
	}
	if r.Completed() != 11 {
		t.Fatalf("completed %d, want 11", r.Completed())
	}

	var def FCTRecorder
	if got := def.exactCap(); got != DefaultExactCap {
		t.Fatalf("default cap %d, want %d", got, DefaultExactCap)
	}
	unbounded := &FCTRecorder{}
	unbounded.SetExactCap(-1)
	if got := unbounded.exactCap(); got >= 0 {
		t.Fatalf("unbounded cap resolves to %d, want negative", got)
	}
}

// TestDegradedRecorderSnapshotRoundTrip: a checkpoint taken after the
// cap degrade must restore onto an exact-constructed recorder (the
// config still says exact) by replaying the degrade, so crash-resume
// continues byte-identically.
func TestDegradedRecorderSnapshotRoundTrip(t *testing.T) {
	r := &FCTRecorder{}
	r.SetExactCap(50)
	for _, s := range paperSamples(120, 13) {
		r.Record(s)
	}
	if !r.Degraded() {
		t.Fatal("setup: recorder did not degrade")
	}
	restored := &FCTRecorder{} // exact-constructed, as the config would build it
	restored.SetExactCap(50)
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
