package metrics

import (
	"math"
	"math/rand"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot/snapshottest"
)

// paperSamples draws a deterministic flow population shaped like the
// paper's workload mix: mostly short flows with fast completions, a
// medium band, and a heavy long-flow tail, with a sprinkling of
// incast-marked completions.
func paperSamples(n int, seed int64) []FCTSample {
	r := rand.New(rand.NewSource(seed))
	out := make([]FCTSample, 0, n)
	for i := 0; i < n; i++ {
		var size int64
		var fct float64
		switch p := r.Float64(); {
		case p < 0.6: // short: ≤10 KB, a few ms
			size = 1 + r.Int63n(ShortMax)
			fct = 2e6 * math.Exp(r.Float64()*2.5)
		case p < 0.9: // medium: 10–100 KB, tens of ms
			size = ShortMax + 1 + r.Int63n(MediumMax-ShortMax)
			fct = 20e6 * math.Exp(r.Float64()*2)
		default: // long: >100 KB, up to tens of seconds
			size = MediumMax + 1 + r.Int63n(10<<20)
			fct = 200e6 * math.Exp(r.Float64()*3)
		}
		out = append(out, FCTSample{
			Size:   size,
			FCT:    sim.Time(fct),
			UE:     i % 16,
			Incast: r.Float64() < 0.1,
		})
	}
	return out
}

func relErr(got, want sim.Time) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(float64(got-want)) / float64(want)
}

// TestStreamMatchesExact is the accuracy gate for the streaming FCT
// path: on a paper-shaped flow population, every Stats view's p50/p99
// must land within 5% of the exact per-sample estimator, with count
// and max exact and the mean within float tolerance.
func TestStreamMatchesExact(t *testing.T) {
	exact := &FCTRecorder{}
	stream := NewStreamingFCTRecorder()
	for _, s := range paperSamples(20000, 3) {
		exact.Record(s)
		stream.Record(s)
	}
	if exact.Completed() != stream.Completed() {
		t.Fatalf("completed: exact %d stream %d", exact.Completed(), stream.Completed())
	}
	if stream.Samples() != nil {
		t.Fatal("streaming recorder retained per-flow samples")
	}
	type view struct {
		name string
		a, b Stats
	}
	views := []view{
		{"overall", exact.Overall(), stream.Stream().Overall()},
		{"short", exact.ByClass(Short), stream.Stream().ByClass(Short)},
		{"medium", exact.ByClass(Medium), stream.Stream().ByClass(Medium)},
		{"long", exact.ByClass(Long), stream.Stream().ByClass(Long)},
		{"incast", exact.IncastStats(), stream.Stream().IncastStats()},
	}
	for _, v := range views {
		if v.a.Count != v.b.Count {
			t.Errorf("%s: count exact %d stream %d", v.name, v.a.Count, v.b.Count)
		}
		if v.a.Max != v.b.Max {
			t.Errorf("%s: max exact %v stream %v", v.name, v.a.Max, v.b.Max)
		}
		if e := relErr(v.b.Mean, v.a.Mean); e > 1e-9 {
			t.Errorf("%s: mean exact %v stream %v (rel %g)", v.name, v.a.Mean, v.b.Mean, e)
		}
		for _, q := range []struct {
			name    string
			ex, str sim.Time
		}{
			{"p50", v.a.P50, v.b.P50},
			{"p95", v.a.P95, v.b.P95},
			{"p99", v.a.P99, v.b.P99},
		} {
			if e := relErr(q.str, q.ex); e > 0.05 {
				t.Errorf("%s %s: exact %v stream %v (rel err %.4f > 0.05)",
					v.name, q.name, q.ex, q.str, e)
			}
		}
	}
}

// TestStreamMergeMatchesUnion: merging two cells' streams must answer
// like a single stream that saw both populations.
func TestStreamMergeMatchesUnion(t *testing.T) {
	a, b, union := NewFCTStream(), NewFCTStream(), NewFCTStream()
	for _, s := range paperSamples(3000, 5) {
		a.Record(s)
		union.Record(s)
	}
	for _, s := range paperSamples(2000, 6) {
		b.Record(s)
		union.Record(s)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got, want := a.Overall(), union.Overall()
	if got.Count != want.Count || got.Max != want.Max || got.P50 != want.P50 || got.P99 != want.P99 {
		t.Errorf("merged stats differ from union:\n  merged %+v\n  union  %+v", got, want)
	}
}

// TestStreamSnapshotRoundTrip: a restored stream must answer every
// query identically — the checkpoint path depends on it.
func TestStreamSnapshotRoundTrip(t *testing.T) {
	s := NewFCTStream()
	for _, smp := range paperSamples(1500, 9) {
		s.Record(smp)
	}
	r := NewFCTStream()
	snapshottest.RoundTrip(t, s.Walk, r.Walk)
	if got, want := r.Overall(), s.Overall(); got != want {
		t.Errorf("restored stats %+v != original %+v", got, want)
	}
	if r.Completed() != s.Completed() {
		t.Errorf("restored count %d != %d", r.Completed(), s.Completed())
	}
}

// TestExactRecorderUnchanged: the zero-value recorder still retains
// samples — the streaming path is opt-in.
func TestExactRecorderUnchanged(t *testing.T) {
	r := &FCTRecorder{}
	r.Record(FCTSample{Size: 100, FCT: sim.Millisecond})
	if len(r.Samples()) != 1 {
		t.Fatalf("exact recorder retained %d samples, want 1", len(r.Samples()))
	}
	if r.Stream() != nil {
		t.Fatal("exact recorder reports a stream")
	}
}
