package workload

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

var testEnv = Env{NumUEs: 8, CapacityBps: 40e6, Span: 20 * sim.Second}

func buildFlows(t *testing.T, s Spec, env Env, seed uint64) []FlowSpec {
	t.Helper()
	src, err := s.Build(env, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return Collect(src)
}

func TestSpecValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"classes without load", Spec{Classes: []ClassSpec{{Kind: ClassWeb}}}, "Spec.Load"},
		{"negative max flows", Spec{MaxFlows: -1}, "Spec.MaxFlows"},
		{"unknown class", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: "telnet"}}}, "Kind"},
		{"bad share", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb, Share: 1.5}}}, "Share"},
		{"bad dist", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb, Dist: "bogus"}}}, "Dist"},
		{"dist on video", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassVideo, Dist: "lte"}}}, "Dist"},
		{"bad window", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb, Begin: 0.8, End: 0.4}}}, "End"},
		{"bad envelope kind", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}, Envelope: Envelope{Kind: "storm"}}, "Envelope.Kind"},
		{"bad envelope depth", Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}, Envelope: Envelope{Kind: EnvDiurnal, Depth: 2}}, "Envelope.Depth"},
		{"trace plus classes", Spec{TraceFile: "x.jsonl", Classes: []ClassSpec{{Kind: ClassWeb}}}, "TraceFile"},
		{"trace plus load", Spec{TraceFile: "x.jsonl", Load: 0.5}, "Spec.Load"},
		{"trace plus envelope", Spec{TraceFile: "x.jsonl", Envelope: Envelope{Kind: EnvDiurnal}}, "Envelope"},
		{"bad extra", Spec{Extra: []FlowSpec{{Start: sim.Second}}}, "Extra[0].Size"},
	}
	// NaN fails every comparison, so each float field gets a NaN row,
	// and the fields with an open upper bound an Inf row too.
	nan, inf := math.NaN(), math.Inf(1)
	web := func(c ClassSpec) Spec { c.Kind = ClassWeb; return Spec{Load: 0.5, Classes: []ClassSpec{c}} }
	env := func(e Envelope) Spec { return Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}, Envelope: e} }
	cases = append(cases, []struct {
		name string
		spec Spec
		want string
	}{
		{"NaN load", Spec{Load: nan, Classes: []ClassSpec{{Kind: ClassWeb}}}, "Spec.Load"},
		{"Inf load", Spec{Load: inf, Classes: []ClassSpec{{Kind: ClassWeb}}}, "Spec.Load"},
		{"-Inf load", Spec{Load: -inf, Classes: []ClassSpec{{Kind: ClassWeb}}}, "Spec.Load"},
		{"NaN load without classes", Spec{Load: nan}, "Spec.Load"},
		{"NaN share", web(ClassSpec{Share: nan}), "Share"},
		{"NaN begin", web(ClassSpec{Begin: nan}), "Begin"},
		{"NaN end", web(ClassSpec{End: nan}), "End"},
		{"NaN depth", env(Envelope{Kind: EnvDiurnal, Depth: nan}), "Envelope.Depth"},
		{"NaN at", env(Envelope{Kind: EnvFlashCrowd, At: nan}), "Envelope.At"},
		{"NaN width", env(Envelope{Kind: EnvFlashCrowd, Width: nan}), "Envelope.Width"},
		{"NaN gain", env(Envelope{Kind: EnvFlashCrowd, Gain: nan}), "Envelope.Gain"},
		{"Inf gain", env(Envelope{Kind: EnvFlashCrowd, Gain: inf}), "Envelope.Gain"},
		{"NaN from", env(Envelope{Kind: EnvRamp, From: nan}), "Envelope.From"},
		{"Inf to", env(Envelope{Kind: EnvRamp, To: inf}), "Envelope.From/To"},
	}...)
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	good := Spec{Load: 0.6, Classes: []ClassSpec{{Kind: ClassWeb}, {Kind: ClassVideo, Share: 0.3}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if (Spec{}).Enabled() {
		t.Fatal("zero spec enabled")
	}
	if !good.Enabled() {
		t.Fatal("good spec not enabled")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSpecVolumeAcrossClasses: every class kind delivers roughly its
// share of the calibrated volume, and the merged stream is sorted.
func TestSpecVolumeAcrossClasses(t *testing.T) {
	spec := Spec{
		Load: 0.6,
		Classes: []ClassSpec{
			{Kind: ClassWeb, Share: 0.4},
			{Kind: ClassVideo, Share: 0.25},
			{Kind: ClassBulk, Share: 0.2},
			{Kind: ClassVoice, Share: 0.1},
			{Kind: ClassIoT, Share: 0.05},
		},
	}
	flows := buildFlows(t, spec, testEnv, 7)
	for i := 1; i < len(flows); i++ {
		if flows[i].Start < flows[i-1].Start {
			t.Fatal("merged stream not sorted")
		}
	}
	target := 0.6 * testEnv.CapacityBps / 8 * testEnv.Span.Seconds()
	vol := float64(TotalBytes(flows))
	if math.Abs(vol-target)/target > 0.35 {
		t.Fatalf("volume %g, want ~%g", vol, target)
	}
	for _, f := range flows {
		if f.UE < 0 || f.UE >= testEnv.NumUEs || f.Size <= 0 || f.Start < 0 || f.Start > testEnv.Span {
			t.Fatalf("bad flow %+v", f)
		}
	}
}

// incastSpec is fig18d's shape: web traffic with a 10% incast class of
// 12-flow bursts of 8 KB.
var incastSpec = Spec{
	Load: 0.8,
	Classes: []ClassSpec{
		{Kind: ClassWeb, Share: 0.9},
		{Kind: ClassIncast, Share: 0.1, Size: 8 * KB, Burst: 12},
	},
}

// TestIncastBursts: the incast class schedules bursts of exactly Burst
// simultaneous flows of fixed Size, each marked Incast, carrying its
// share of the volume.
func TestIncastBursts(t *testing.T) {
	spec := incastSpec
	counts := map[sim.Time]int{}
	var vol int64
	for _, f := range buildFlows(t, spec, testEnv, 3) {
		if !f.Incast {
			continue
		}
		if f.Size != 8*KB {
			t.Fatalf("bad incast flow %+v", f)
		}
		counts[f.Start]++
		vol += f.Size
	}
	if len(counts) == 0 {
		t.Fatal("no incast flows")
	}
	for at, n := range counts {
		if n != 12 {
			t.Fatalf("burst at %v has %d flows, want 12", at, n)
		}
	}
	want := 0.1 * 0.8 * testEnv.CapacityBps / 8 * testEnv.Span.Seconds()
	if math.Abs(float64(vol)-want)/want > 0.25 {
		t.Fatalf("incast volume %d B, want ~%g B", vol, want)
	}
}

// TestIncastRejectsNonPositiveUEs: UE assignment draws r.Intn(NumUEs),
// which panics on a non-positive argument, so building an incast spec
// must reject it up front.
func TestIncastRejectsNonPositiveUEs(t *testing.T) {
	for _, ues := range []int{0, -3} {
		env := testEnv
		env.NumUEs = ues
		if _, err := incastSpec.Build(env, rng.New(1)); err == nil {
			t.Errorf("NumUEs = %d accepted", ues)
		}
	}
}

// TestSpecSameSeedDeterminismPerEnvelope: for every temporal envelope,
// the same (spec, env, seed) yields an identical stream, and different
// seeds yield different streams.
func TestSpecSameSeedDeterminismPerEnvelope(t *testing.T) {
	for _, kind := range []EnvelopeKind{EnvNone, EnvDiurnal, EnvFlashCrowd, EnvRamp} {
		spec := Spec{
			Load:     0.5,
			Classes:  []ClassSpec{{Kind: ClassWeb}, {Kind: ClassIoT, Share: 0.05}},
			Envelope: Envelope{Kind: kind},
		}
		a := buildFlows(t, spec, testEnv, 11)
		b := buildFlows(t, spec, testEnv, 11)
		if len(a) != len(b) {
			t.Fatalf("%q: nondeterministic length %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%q: streams diverge at %d: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
		c := buildFlows(t, spec, testEnv, 12)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
		}
		if same && len(a) > 0 {
			t.Fatalf("%q: seed change did not perturb the stream", kind)
		}
	}
}

// TestDiurnalEnvelopeShapesArrivals: under the diurnal envelope the
// peak half of the span must hold substantially more arrivals than the
// trough half, while the total volume stays load-matched.
func TestDiurnalEnvelopeShapesArrivals(t *testing.T) {
	flat := Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}}
	diurnal := flat
	diurnal.Envelope = Envelope{Kind: EnvDiurnal}

	flatFlows := buildFlows(t, flat, testEnv, 3)
	diurnalFlows := buildFlows(t, diurnal, testEnv, 3)

	// Redistribution, not scaling: same calibrated volume either way.
	fv, dv := float64(TotalBytes(flatFlows)), float64(TotalBytes(diurnalFlows))
	if math.Abs(fv-dv)/fv > 0.05 {
		t.Fatalf("envelope changed volume: %g vs %g", fv, dv)
	}

	// The sine peaks mid-span: the middle half should be crowded.
	mid := 0
	for _, f := range diurnalFlows {
		if f.Start >= testEnv.Span/4 && f.Start < 3*testEnv.Span/4 {
			mid++
		}
	}
	frac := float64(mid) / float64(len(diurnalFlows))
	if frac < 0.6 {
		t.Fatalf("diurnal middle-half fraction %.2f, want > 0.6", frac)
	}
}

func TestFlashCrowdEnvelope(t *testing.T) {
	spec := Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}}
	spec.Envelope = Envelope{Kind: EnvFlashCrowd, At: 0.5, Width: 0.1, Gain: 8}
	flows := buildFlows(t, spec, testEnv, 4)
	in := 0
	for _, f := range flows {
		u := float64(f.Start) / float64(testEnv.Span)
		if u >= 0.5 && u < 0.6 {
			in++
		}
	}
	frac := float64(in) / float64(len(flows))
	// 10% of the time at 8x rate vs baseline elsewhere: expect ~47%.
	if frac < 0.3 {
		t.Fatalf("flash-crowd window fraction %.2f, want > 0.3", frac)
	}
}

func TestWarpMonotoneAndAnchored(t *testing.T) {
	span := 10 * sim.Second
	for _, e := range []Envelope{
		{Kind: EnvDiurnal},
		{Kind: EnvFlashCrowd},
		{Kind: EnvRamp},
		{Kind: EnvRamp, From: 2, To: 0.1},
	} {
		w := newWarper(e, span)
		if got := w.warp(0); got != 0 {
			t.Fatalf("%q: warp(0) = %v", e.Kind, got)
		}
		if got := w.warp(span); got != span {
			t.Fatalf("%q: warp(span) = %v", e.Kind, got)
		}
		prev := sim.Time(-1)
		for i := 0; i <= 1000; i++ {
			at := sim.Time(float64(span) * float64(i) / 1000)
			got := w.warp(at)
			if got < prev {
				t.Fatalf("%q: warp not monotone at %v", e.Kind, at)
			}
			if got < 0 || got > span {
				t.Fatalf("%q: warp(%v) = %v outside span", e.Kind, at, got)
			}
			prev = got
		}
	}
}

func TestAppMixShiftScenario(t *testing.T) {
	spec, ok := Scenario("appmix-shift", "lte", 0.5)
	if !ok {
		t.Fatal("appmix-shift not resolved")
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	flows := buildFlows(t, spec, testEnv, 5)
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	// Both halves carry traffic (two classes on disjoint windows).
	var first, second int
	for _, f := range flows {
		if f.Start < testEnv.Span/2 {
			first++
		} else {
			second++
		}
	}
	if first == 0 || second == 0 {
		t.Fatalf("mix shift lost a phase: %d / %d", first, second)
	}
}

func TestScenarioNames(t *testing.T) {
	for _, n := range ScenarioNames() {
		s, ok := Scenario(n, "lte", 0.6)
		if !ok {
			t.Errorf("scenario %q not resolved", n)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", n, err)
		}
	}
	if _, ok := Scenario("bogus", "lte", 0.6); ok {
		t.Fatal("bogus scenario resolved")
	}
}

func TestSpecExtraAndMaxFlows(t *testing.T) {
	extra := []FlowSpec{
		{Start: 3 * sim.Second, UE: 2, Size: 4096},
		{Start: sim.Second, UE: 1, Size: 1024},
	}
	spec := Spec{Extra: extra}
	flows := buildFlows(t, spec, testEnv, 1)
	if len(flows) != 2 || flows[0].Start != sim.Second || flows[1].Start != 3*sim.Second {
		t.Fatalf("extra flows not sorted into the stream: %+v", flows)
	}
	capped := Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}, MaxFlows: 5}
	if n := len(buildFlows(t, capped, testEnv, 2)); n != 5 {
		t.Fatalf("MaxFlows yielded %d", n)
	}
}

func TestSpecTraceReplay(t *testing.T) {
	gen := Spec{Load: 0.5, Classes: []ClassSpec{{Kind: ClassWeb}}, Envelope: Envelope{Kind: EnvDiurnal}}
	flows := buildFlows(t, gen, testEnv, 9)

	path := filepath.Join(t.TempDir(), "w.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, flows); err != nil {
		t.Fatal(err)
	}
	f.Close()

	replayed := buildFlows(t, ReplaySpec(path), testEnv, 1234) // seed must not matter
	if len(replayed) != len(flows) {
		t.Fatalf("replay %d flows, want %d", len(replayed), len(flows))
	}
	for i := range flows {
		if replayed[i] != flows[i] {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, replayed[i], flows[i])
		}
	}
}

func TestNormalizeShares(t *testing.T) {
	sum := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s
	}
	for name, classes := range map[string][]ClassSpec{
		"explicit":   {{Share: 0.6}, {Share: 0.2}},
		"all zero":   {{}, {}, {}},
		"mixed":      {{Share: 0.5}, {}},
		"overfull":   {{Share: 0.9}, {Share: 0.9}, {}},
		"singleton":  {{}},
		"explicit 1": {{Share: 1}},
	} {
		got := normalizeShares(classes)
		if math.Abs(sum(got)-1) > 1e-9 {
			t.Errorf("%s: shares sum to %g", name, sum(got))
		}
		for i, v := range got {
			if v <= 0 || v > 1 {
				t.Errorf("%s: share %d = %g", name, i, v)
			}
		}
	}
}
