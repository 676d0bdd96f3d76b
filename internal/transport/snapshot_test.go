package transport

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// TestWalkRoundTrip: a sender and a receiver caught mid-transfer, with
// a hole at the receiver, the lost segment retransmitted (a hole in
// the Karn window, in front of send times still outstanding) and the
// RTO timer armed, survive encode -> decode -> encode byte for byte;
// so does the sender once the transfer has completed.
func TestWalkRoundTrip(t *testing.T) {
	p := karnHolePipe(t)
	fresh := newPipe(t, 512*1024, Config{})
	snapshottest.RoundTrip(t, p.s.Walk, fresh.s.Walk)
	snapshottest.RoundTrip(t, p.r.Walk, fresh.r.Walk)
	if fresh.eng.Pending() != 1 {
		t.Fatalf("restored sender queued %d events, want its RTO arm", fresh.eng.Pending())
	}
	// A completed sender, which has dropped its send times, walks too.
	if p.eng.RunUntil(60 * sim.Second); !p.s.Completed() {
		t.Fatal("transfer did not complete")
	}
	snapshottest.RoundTrip(t, p.s.Walk, newPipe(t, 512*1024, Config{}).s.Walk)
}

// TestWalkKeepsRetransmittedHoles: a sender caught in a SACK recovery
// that has retransmitted holes in the middle of its window and at its
// end walks its send times with those segments marked retransmitted.
func TestWalkKeepsRetransmittedHoles(t *testing.T) {
	p := newPipe(t, 512*1024, Config{})
	p.r.SendAck = nil
	p.r.SendSACK = func(ack, lo, hi int64) { p.eng.After(p.delay, func() { p.s.OnAckSACK(ack, lo, hi) }) }
	lost := map[int64]bool{}
	p.drop = func(seq int64) bool {
		if (seq == 42000 || seq == 44800 || seq == 56000) && !lost[seq] {
			lost[seq] = true
			return true
		}
		return false
	}
	p.s.Start()
	for p.s.Retransmits() < 3 && p.eng.Now() < sim.Second {
		p.eng.RunUntil(p.eng.Now() + sim.Millisecond)
	}
	if i, ok := p.s.slot(44800); !ok || p.s.sent[i] != -1 || p.s.highestAcked > 42000 {
		t.Fatalf("ack %d, %d retransmissions; want holes at 42000, 44800 and 56000 resent and the first not yet acknowledged",
			p.s.highestAcked, p.s.Retransmits())
	}
	p.s.sent[len(p.s.sent)-1] = -1 // and the newest segment, as if resent too
	fresh := newPipe(t, 512*1024, Config{})
	snapshottest.RoundTrip(t, p.s.Walk, fresh.s.Walk)
	// A retransmitted segment at the front is not walked: nothing
	// distinguishes it from one below the window.
	live := func(s *Sender) []sim.Time {
		l := s.sent[s.sentHead:]
		for len(l) > 0 && l[0] < 0 {
			l = l[1:]
		}
		return l
	}
	if got, want := live(fresh.s), live(p.s); !slices.Equal(got, want) || !slices.Contains(got, -1) || got[len(got)-1] != -1 {
		t.Fatalf("restored send times %v, want %v with the holes and the newest segment marked -1", got, want)
	}
}

// karnHolePipe is a 512 KB transfer stopped just after the one lost
// segment's fast retransmission, before its ACK.
func karnHolePipe(t *testing.T) *pipe {
	t.Helper()
	p := newPipe(t, 512*1024, Config{})
	p.drop = func(seq int64) bool { return seq == 28000 && p.s.Retransmits() == 0 }
	p.s.Start()
	for p.s.Retransmits() == 0 && p.eng.Now() < sim.Second {
		p.eng.RunUntil(p.eng.Now() + sim.Millisecond)
	}
	i, held := p.s.slot(28000)
	if !held || p.s.sent[i] != -1 || len(sendTimes(p.s)) < 3 || len(p.r.ooo.ivs) == 0 || !p.s.rtoTimer.Running() {
		t.Fatalf("retransmitted segment held %v, %d send times, %d out-of-order ranges, rto running %v; the round trip would cover nothing",
			held, len(sendTimes(p.s)), len(p.r.ooo.ivs), p.s.rtoTimer.Running())
	}
	return p
}

// TestSenderRejectsKarnOutsideWindow: a sender section whose send times
// are not what a sender keeps — ascending on the MSS grid, from the ack
// floor and below the next sequence — fails with ErrCorrupt at the
// first entry that breaks it, and a count the input cannot hold fails
// with ErrTruncated, each before anything is sized from the claim.
func TestSenderRejectsKarnOutsideWindow(t *testing.T) {
	p := karnHolePipe(t)
	mss, floor, next := int64(p.s.cfg.MSS), p.s.highestAcked, p.s.nextSeq
	img := snapshottest.Encode(p.s.Walk)
	kept := sendTimes(p.s)
	// The send times are a count and 16-byte pairs in front of the
	// completed flag and three counters.
	const tail = 1 + 3*8
	head, suffix := img[:len(img)-tail-4-16*len(kept)], img[len(img)-tail:]
	with := func(edit func([]sendTime) []sendTime) []sendTime { return edit(slices.Clone(kept)) }
	at := func(seq int64) string { return fmt.Sprintf("at seq %d;", seq) }
	first, second := kept[0].seq, kept[1].seq
	for _, c := range []struct {
		name  string
		times []sendTime
		count uint32 // when not len(times); the section then ends there
		want  string // names the entry or the check that fails
	}{
		{"seq off the grid", with(func(s []sendTime) []sendTime { s[0].seq++; return s }), 0, at(first + 1)},
		{"seq below the ack floor", with(func(s []sendTime) []sendTime { return append([]sendTime{{floor - mss, 1}}, s...) }), 0, at(floor - mss)},
		{"seq at next seq", with(func(s []sendTime) []sendTime { return append(s, sendTime{next, 1}) }), 0, at(next)},
		{"seq past next seq", []sendTime{{next + mss, 1}}, 0, at(next + mss)},
		{"duplicate", with(func(s []sendTime) []sendTime { return slices.Insert(s, 1, s[0]) }), 0, at(first)},
		{"descending pair", with(func(s []sendTime) []sendTime { s[0], s[1] = s[1], s[0]; return s }), 0, at(first)},
		{"negative time", with(func(s []sendTime) []sendTime { s[1].at = -5; return s }), 0, at(second)},
		{"count beyond input", nil, 1 << 24, "count 16777216"},
	} {
		err := snapshot.ErrCorrupt
		if c.count != 0 {
			err = snapshot.ErrTruncated
		}
		payload := snapshottest.Encode(func(w *snapshot.Walker) {
			w.Raw(head)
			n := c.count
			if n == 0 {
				n = uint32(len(c.times))
			}
			w.U32(&n)
			for _, st := range c.times {
				w.I64(&st.seq)
				snapshot.I64(w, &st.at)
			}
			if c.count == 0 {
				w.Raw(suffix)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := snapshottest.Decode(payload, newPipe(t, 512*1024, Config{}).s.Walk)
		runtime.ReadMemStats(&after)
		if !errors.Is(got, err) || !strings.Contains(fmt.Sprint(got), c.want) {
			t.Errorf("%s: restore error = %v, want %v naming %q", c.name, got, err, c.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: restore allocated %d bytes on the way to failing, want < 1 MiB", c.name, n)
		}
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
