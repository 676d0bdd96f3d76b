package metrics

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// refRecorder is the exact recorder as it was before its samples were
// packed, frozen as the oracle: every FCTSample kept whole, 32 bytes
// each, and filtered field by field.
type refRecorder struct {
	samples []FCTSample
	started int
}

func (r *refRecorder) stats(keep func(FCTSample) bool) Stats {
	var fcts []sim.Time
	for _, s := range r.samples {
		if keep(s) {
			fcts = append(fcts, s.FCT)
		}
	}
	return ComputeStats(fcts)
}

// walk is FCTRecorder.Walk's layout for an exact, undegraded recorder.
func (r *refRecorder) walk() []byte {
	return snapshottest.Encode(func(w *snapshot.Walker) {
		var streaming, degraded bool
		n := uint32(len(r.samples))
		w.Mark(tagFCT)
		w.Bool(&streaming)
		w.Bool(&degraded)
		w.U32(&n)
		for _, s := range r.samples {
			fct := int64(s.FCT)
			w.I64(&s.Size)
			w.I64(&fct)
			w.Int(&s.UE)
			w.Bool(&s.Incast)
		}
		w.Int(&r.started)
	})
}

// fctStep turns 16 program bytes into a sample: sizes spread over the
// three classes and up to the recorder's limit, UEs up to theirs.
func fctStep(b []byte) (FCTSample, bool) {
	a, c := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	var size int64
	switch a >> 62 {
	case 0:
		size = 1 + int64(a%ShortMax)
	case 1:
		size = ShortMax + 1 + int64(a%(MediumMax-ShortMax))
	case 2:
		size = int64(a % SizeLimit)
	default:
		size = SizeLimit - 1 - int64(a%4)
	}
	ue := int(c % UELimit)
	if c>>62 == 3 {
		ue = UELimit - 1
	}
	return FCTSample{Size: size, FCT: sim.Time(c >> 24), UE: ue, Incast: c>>61&1 == 1}, a&1 == 1
}

// runFCTProgram records each 16-byte step's sample into a fresh
// recorder and the reference, counting a started flow where the step
// says so, and compares everything the recorder answers after each.
func runFCTProgram(t testing.TB, prog []byte) *FCTRecorder {
	t.Helper()
	var got FCTRecorder
	var ref refRecorder
	for i := 0; i+16 <= len(prog); i += 16 {
		s, started := fctStep(prog[i:])
		if started {
			got.FlowStarted()
			ref.started++
		}
		got.Record(s)
		ref.samples = append(ref.samples, s)

		if g, w := got.Overall(), ref.stats(func(FCTSample) bool { return true }); g != w {
			t.Fatalf("step %d: Overall %+v, reference %+v", i/16, g, w)
		}
		if g, w := got.IncastStats(), ref.stats(func(s FCTSample) bool { return s.Incast }); g != w {
			t.Fatalf("step %d: IncastStats %+v, reference %+v", i/16, g, w)
		}
		for c := Short; c <= Long; c++ {
			if g, w := got.ByClass(c), ref.stats(func(s FCTSample) bool { return ClassOf(s.Size) == c }); g != w {
				t.Fatalf("step %d: ByClass(%v) %+v, reference %+v", i/16, c, g, w)
			}
			if g, w := got.NonIncastByClass(c), ref.stats(func(s FCTSample) bool { return !s.Incast && ClassOf(s.Size) == c }); g != w {
				t.Fatalf("step %d: NonIncastByClass(%v) %+v, reference %+v", i/16, c, g, w)
			}
		}
		if g := got.Samples(); !reflect.DeepEqual(g, ref.samples) {
			t.Fatalf("step %d: Samples differ from the reference\n got:  %+v\n want: %+v", i/16, g, ref.samples)
		}
		if g, w := snapshottest.Encode(got.Walk), ref.walk(); !bytes.Equal(g, w) {
			t.Fatalf("step %d: Walk differs from the reference (%d vs %d bytes)", i/16, len(g), len(w))
		}
	}
	return &got
}

// TestFCTRecorderMatchesReference runs seeded random programs against
// the frozen 32-byte recorder, then round-trips each recorder through
// its walk.
func TestFCTRecorderMatchesReference(t *testing.T) {
	g := rand.New(rand.NewSource(46))
	for i := 0; i < 20; i++ {
		prog := make([]byte, 16*60)
		g.Read(prog)
		r := runFCTProgram(t, prog)
		snapshottest.RoundTrip(t, r.Walk, new(FCTRecorder).Walk)
	}
}

// FuzzFCTRecorder records fuzzed samples, incast ones included, into
// the packed recorder and the frozen 32-byte one, and requires Overall,
// ByClass, IncastStats, NonIncastByClass, Samples and the Walk bytes to
// agree after each.
func FuzzFCTRecorder(f *testing.F) {
	edge := make([]byte, 16*4)
	for i := range edge {
		edge[i] = 0xff // the largest size and UE that fit, incast, started
	}
	f.Add(edge)
	seed := make([]byte, 16*8)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 16*64 {
			prog = prog[:16*64]
		}
		runFCTProgram(t, prog)
	})
}

// TestRestoreRejectsUnpackableSample: a retained sample keeps its size
// in 40 bits and its UE in 23, so a checkpoint sample with a size or UE
// outside them is corrupt input. Each fails with snapshot.ErrCorrupt,
// allocating next to nothing, and the largest values that fit restore.
func TestRestoreRejectsUnpackableSample(t *testing.T) {
	image := func(s FCTSample) []byte {
		return snapshottest.Encode(func(w *snapshot.Walker) {
			var streaming, degraded bool
			n, started, fct := uint32(1), 1, int64(s.FCT)
			w.Mark(tagFCT)
			w.Bool(&streaming)
			w.Bool(&degraded)
			w.U32(&n)
			w.I64(&s.Size)
			w.I64(&fct)
			w.Int(&s.UE)
			w.Bool(&s.Incast)
			w.Int(&started)
		})
	}
	for name, s := range map[string]FCTSample{
		"size 2^40":     {Size: 1 << 40, FCT: sim.Millisecond},
		"negative size": {Size: -1, FCT: sim.Millisecond},
		"UE -1":         {Size: 100, FCT: sim.Millisecond, UE: -1},
		"UE 2^23":       {Size: 100, FCT: sim.Millisecond, UE: 1 << 23},
	} {
		img := image(s)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := snapshottest.Decode(img, new(FCTRecorder).Walk)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: restore error = %v, want snapshot.ErrCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: restore allocated %d bytes on the way to failing, want < 1 MiB", name, got)
		}
	}
	edge := FCTSample{Size: 1<<40 - 1, FCT: sim.Second, UE: 1<<23 - 1, Incast: true}
	var r FCTRecorder
	if err := snapshottest.Decode(image(edge), r.Walk); err != nil {
		t.Fatalf("restoring %+v: %v", edge, err)
	}
	if got := r.Samples(); len(got) != 1 || got[0] != edge {
		t.Fatalf("restored %+v, want [%+v]", got, edge)
	}
}

// TestRecordPanicsOnUnpackableSample: a sample outside the limits can
// only come from a caller that skipped ran's checks, so Record panics
// rather than keep a wrong sample.
func TestRecordPanicsOnUnpackableSample(t *testing.T) {
	for _, s := range []FCTSample{{Size: SizeLimit}, {Size: -1}, {Size: 1, UE: UELimit}, {Size: 1, UE: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Record(%+v) did not panic", s)
				}
			}()
			new(FCTRecorder).Record(s)
		}()
	}
}

// TestRecordSizes pins the retained FCT sample at 16 bytes: with the
// PDCP flow entry's 32, the 48 bytes a served flow keeps, on which the
// flow-churn live-heap figure rests. A field added here must answer for
// that.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(fctRec{}); got != 16 {
		t.Fatalf("fctRec is %d bytes, want 16: a served flow keeps one per cell, and flow-churn's live heap was sized at 16", got)
	}
}
