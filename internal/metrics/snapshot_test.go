package metrics

import (
	"errors"
	"runtime"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestWalkRoundTrip: the tracker and the delay accumulators, mid-block
// with folded samples behind them, survive encode -> decode -> encode
// byte for byte (the recorder and the stream have their own tests).
func TestWalkRoundTrip(t *testing.T) {
	tr := NewCellTracker(5e6, 3)
	for tti := 0; tti < 3*tr.SamplePeriod+7; tti++ {
		tr.OnUE(0, tti, true)
		tr.OnUE(1, 2, true)
		tr.OnUE(2, 0, false)
		tr.OnTTI(sim.Time(tti)*sim.Millisecond, 1000+tti)
	}
	if len(tr.seSamples) != 3 || len(tr.seTimes) != 3 || tr.bitsThisBlock == 0 || len(tr.ueBlock) != 3 {
		t.Fatalf("tracker folded %d samples, %d bits in the open block; the round trip would cover nothing", len(tr.seSamples), tr.bitsThisBlock)
	}
	snapshottest.RoundTrip(t, tr.Walk, NewCellTracker(5e6, 3).Walk)

	var d DelayTracker
	d.Record(3*sim.Millisecond, true)
	d.Record(9*sim.Millisecond, false)
	snapshottest.RoundTrip(t, d.Walk, new(DelayTracker).Walk)
}

// TestSampleFieldsWalked: every field of a retained FCT sample is
// checkpoint state.
func TestSampleFieldsWalked(t *testing.T) {
	snapshottest.Fields(t, (*fctRec).walk, nil)
}

// TestTrackerRejectsCountBeyondInput: a CRC-valid section a few dozen
// bytes long that claims the maximum number of samples fails before
// anything is sized from the claim.
func TestTrackerRejectsCountBeyondInput(t *testing.T) {
	var b snapshot.Builder
	b.Walk("tracker", func(w *snapshot.Walker) {
		w.Mark(tagTracker)
		w.Raw(make([]byte, 8+2*8+4+2*8)) // an int, two int64s, no UEs, two int64s: all zero
		n := uint32(1 << 28)
		w.U32(&n)
	})
	a, err := snapshot.Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = a.Walk("tracker", NewCellTracker(5e6, 0).Walk)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("restore error = %v, want snapshot.ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("restore allocated %d bytes on the way to failing, want < 1 MiB", got)
	}
}
