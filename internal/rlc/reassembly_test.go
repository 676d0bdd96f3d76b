package rlc

import (
	"bytes"
	"slices"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// mapReassembly is the reassembly table the receivers used to keep,
// frozen: one heap partialSDU per SDU id in a map, an expiry sweep over
// the sorted ids, and a walk in sorted-id order.
type mapReassembly struct {
	partials  map[uint64]*partialSDU
	sduTimer  *sim.Timer
	delivered uint64
	discarded uint64
}

func (r *mapReassembly) fold(pdu *PDU, now, age sim.Time, deliver func(*SDU)) {
	for _, seg := range pdu.Segments {
		p := r.partials[seg.SDU.ID]
		if p == nil {
			p = &partialSDU{sdu: seg.SDU}
			r.partials[seg.SDU.ID] = p
		}
		p.received += seg.Len
		p.lastSeen = now
		if p.received >= p.sdu.Size {
			delete(r.partials, seg.SDU.ID)
			r.delivered++
			if deliver != nil {
				deliver(p.sdu)
			}
		}
	}
	if len(r.partials) > 0 && !r.sduTimer.Running() {
		r.sduTimer.Start(age)
	}
}

func (r *mapReassembly) expire(now, age sim.Time) {
	ids := make([]uint64, 0, len(r.partials))
	for id := range r.partials {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if now-r.partials[id].lastSeen >= age {
			delete(r.partials, id)
			r.discarded++
		}
	}
	if len(r.partials) > 0 {
		r.sduTimer.Start(age)
	}
}

func (r *mapReassembly) walk(c *Refs) {
	w := c.W
	snapshot.Map(w, r.partials, 1<<24, partialBytes, slices.Sort, func(id *uint64, p **partialSDU) {
		w.U64(id)
		c.SDU(&(*p).sdu)
		w.Int(&(*p).received)
		snapshot.I64(w, &(*p).lastSeen)
	})
}

// FuzzReassembly runs a program against the reassembly table and the
// frozen map-keyed one side by side. Each op is a PDU of one or two
// segments drawn from eight SDUs — so an older SDU can sit half received
// while newer ones complete, and segments repeat — a clock step, or an
// expiry tick. After every op the delivery order, the discard count,
// the expiry timer and the walked bytes must agree, and the table must
// round-trip through its walk.
func FuzzReassembly(f *testing.F) {
	// An old SDU's first segment, then two newer SDUs completing around
	// it, its tail, a duplicate of a finished SDU and an expiry.
	f.Add([]byte{30, 50, 10, 0, 1, 99, 200, 1, 2, 99, 0, 99, 1, 0, 200, 1, 1, 99, 2, 90, 3})
	f.Add([]byte{0, 7, 10, 0, 6, 10, 2, 20, 3, 2, 30, 3, 0, 7, 200, 1, 0, 5, 0, 6, 99, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		var sdus [8]*SDU
		for i := range sdus {
			sdus[i] = &SDU{ID: uint64(10 + 3*i), Size: 100 + 50*i}
		}
		var engA, engB sim.Engine
		var gotA, gotB []uint64
		a := &reassembly{sduTimer: sim.NewTimer(&engA, func() {})}
		b := &mapReassembly{partials: map[uint64]*partialSDU{}, sduTimer: sim.NewTimer(&engB, func() {})}
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			v := prog[0]
			prog = prog[1:]
			return int(v)
		}
		var now sim.Time
		for len(prog) > 0 {
			switch op := next(); op % 4 {
			case 0, 1:
				pdu := &PDU{}
				for range 1 + op%2 {
					s := sdus[next()%len(sdus)]
					pdu.Segments = append(pdu.Segments, Segment{SDU: s, Len: 1 + next()%s.Size})
				}
				a.fold(pdu, now, DefaultTReassembly, func(s *SDU) { gotA = append(gotA, s.ID) })
				b.fold(pdu, now, DefaultTReassembly, func(s *SDU) { gotB = append(gotB, s.ID) })
			case 2:
				now += sim.Time(next()) * sim.Millisecond
			case 3:
				a.expire(now, DefaultTReassembly)
				b.expire(now, DefaultTReassembly)
			}
			if !slices.Equal(gotA, gotB) || a.delivered != b.delivered || a.discarded != b.discarded ||
				a.sduTimer.Running() != b.sduTimer.Running() {
				t.Fatalf("delivered %v (%d), discarded %d, timer %v; the map table: %v (%d), %d, %v",
					gotA, a.delivered, a.discarded, a.sduTimer.Running(), gotB, b.delivered, b.discarded, b.sduTimer.Running())
			}
			walkA := func(w *snapshot.Walker) { NewRefs(w).partials(&a.partials) }
			imgA := snapshottest.Encode(walkA)
			if imgB := snapshottest.Encode(func(w *snapshot.Walker) { b.walk(NewRefs(w)) }); !bytes.Equal(imgA, imgB) {
				t.Fatalf("partials walk to %x, the map table's to %x", imgA, imgB)
			}
			var restored reassembly
			snapshottest.RoundTrip(t, walkA, func(w *snapshot.Walker) { NewRefs(w).partials(&restored.partials) })
		}
	})
}
