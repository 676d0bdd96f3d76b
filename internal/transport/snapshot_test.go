package transport

import (
	"errors"
	"runtime"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestWalkRoundTrip: a sender and a receiver caught mid-transfer, with
// a hole at the receiver, Karn send times outstanding and the RTO timer
// armed, survive encode -> decode -> encode byte for byte.
func TestWalkRoundTrip(t *testing.T) {
	p := newPipe(t, 512*1024, Config{})
	p.drop = func(seq int64) bool { return seq == 28000 }
	p.s.Start()
	p.eng.RunUntil(45 * sim.Millisecond)
	if len(p.r.ooo) == 0 || len(p.s.sentAt) == 0 || !p.s.rtoTimer.Running() {
		t.Fatalf("%d out-of-order ranges, %d send times, rto running %v; the round trip would cover nothing",
			len(p.r.ooo), len(p.s.sentAt), p.s.rtoTimer.Running())
	}
	fresh := newPipe(t, 512*1024, Config{})
	snapshottest.RoundTrip(t, p.s.Walk, fresh.s.Walk)
	snapshottest.RoundTrip(t, p.r.Walk, fresh.r.Walk)
	if fresh.eng.Pending() != 1 {
		t.Fatalf("restored sender queued %d events, want its RTO arm", fresh.eng.Pending())
	}
}

// TestReceiverRejectsCountBeyondInput: a CRC-valid section a few bytes
// long that claims the maximum number of reassembly ranges fails before
// anything is sized from the claim.
func TestReceiverRejectsCountBeyondInput(t *testing.T) {
	var b snapshot.Builder
	b.Walk("receiver", func(w *snapshot.Walker) {
		w.Mark(tagReceiver)
		n := uint32(1 << 24)
		w.U32(&n)
	})
	a, err := snapshot.Open(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = a.Walk("receiver", (&Receiver{}).Walk)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("restore error = %v, want snapshot.ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("restore allocated %d bytes on the way to failing, want < 1 MiB", got)
	}
}
