package rlc

import (
	"slices"
	"testing"

	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// mapReassembly is the reassembly table the receivers used to keep,
// frozen: one heap partialSDU per SDU id in a map, counting bytes
// without looking at offsets, and an expiry sweep over the sorted ids
// that discards a partial SDU age after its last segment, overtaken or
// not.
type mapReassembly struct {
	partials  map[uint64]*mapPartial
	delivered uint64
	discarded uint64
}

type mapPartial struct {
	sdu      *SDU
	received int
	lastSeen sim.Time
}

func (r *mapReassembly) fold(pdu *PDU, now sim.Time, deliver func(*SDU)) {
	for _, seg := range pdu.Segments {
		p := r.partials[seg.SDU.ID]
		if p == nil {
			p = &mapPartial{sdu: seg.SDU}
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
}

// fuzzTable is one reassembly table under FuzzReassembly with what the
// harness knows of it: the SDUs it has seen a byte of (it counts each one
// it gives up on), those it delivered, and when each partial SDU was
// first overtaken by a PDU carrying a newer one.
type fuzzTable struct {
	name string
	reassembly
	seen      map[uint64]bool
	delivered []uint64
	overtaken map[uint64]sim.Time
}

func (f *fuzzTable) deliver(s *SDU) { f.delivered = append(f.delivered, s.ID) }

func (f *fuzzTable) held() []uint64 {
	ids := make([]uint64, len(f.partials))
	for i, p := range f.partials {
		ids[i] = p.sdu.ID
	}
	return ids
}

// foldAt folds pdu at now and returns the SDUs the fold gave up on.
func (f *fuzzTable) foldAt(pdu *PDU, now sim.Time) []uint64 {
	before, n := f.held(), len(f.delivered)
	f.fold(pdu, now, f.deliver)
	newest := uint64(0)
	for _, seg := range pdu.Segments {
		newest = max(newest, seg.SDU.ID)
	}
	for _, id := range append(before, f.held()...) {
		if _, ok := f.overtaken[id]; !ok && id < newest {
			f.overtaken[id] = now
		}
	}
	return gone(before, f.held(), f.delivered[n:])
}

// gone returns the ids held before and not after, less the delivered.
func gone(before, after, delivered []uint64) []uint64 {
	var out []uint64
	for _, id := range before {
		if !slices.Contains(after, id) && !slices.Contains(delivered, id) {
			out = append(out, id)
		}
	}
	return out
}

// FuzzReassembly runs a program against two reassembly tables and the
// frozen map-keyed one. Each op is a PDU of one or two segments drawn
// from eight SDU streams, each SDU sent in offset order, so an older SDU
// can sit half received while newer ones complete; a lost PDU; a clock
// step; or a t-Reassembly tick. The UM table never hears of a lost PDU
// and expires on the ticks; the AM table is handed every lost PDU in
// its place (AMRx.Abandon's path) and never expires. After every op:
//   - no partial SDU is discarded unless a newer SDU overtook it at
//     least t-Reassembly earlier (the UM ticks), or some of its bytes
//     were lost (a fold or a lost PDU);
//   - no SDU is counted twice, and none is left out: every SDU a table
//     saw a byte of (the UM table: folded; the AM table: folded or
//     lost) is a partial, delivered, or counted once among its
//     discards, the UM table's SDUs whose head it never received too;
//   - no SDU with a lost byte is delivered, and none twice;
//   - wherever the old rules and the new agree — an SDU no table gave
//     up on and none of whose bytes was lost — the deliveries match the
//     map table's in order;
//   - each table round-trips through its walk.
func FuzzReassembly(f *testing.F) {
	// An old SDU's head, a newer SDU overtaking it, 60 ms and a tick
	// (it expires), then its tail (dropped, not counted again).
	f.Add([]byte{0, 0, 50, 0, 1, 150, 2, 60, 3, 0, 0, 99})
	// An SDU's head lost, then its middle and its tail: counted once, by
	// the UM table at the middle.
	f.Add([]byte{224, 0, 20, 0, 0, 20, 0, 0, 57})
	// An SDU's head, 50 ms of silence and a tick, then the rest: it is
	// delivered, since nothing overtook it.
	f.Add([]byte{0, 0, 40, 2, 50, 3, 0, 0, 99, 2, 50, 3})
	// A lost PDU between an SDU's head and its tail, and one carrying
	// a whole SDU and the head of the next.
	f.Add([]byte{0, 2, 30, 228, 2, 30, 0, 2, 255, 229, 3, 9, 4, 10, 0, 4, 255, 2, 90, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			v := prog[0]
			prog = prog[1:]
			return int(v)
		}
		var streams [8]struct {
			sdu  *SDU
			sent int
		}
		lastID := uint64(9)
		fresh := func(k int) {
			lastID += 1 + uint64(k)
			streams[k].sdu, streams[k].sent = &SDU{ID: lastID, Size: 100 + 50*k}, 0
		}
		for k := range streams {
			fresh(k)
		}
		um := &fuzzTable{name: "UM", seen: map[uint64]bool{}, overtaken: map[uint64]sim.Time{}}
		am := &fuzzTable{name: "AM", seen: map[uint64]bool{}, overtaken: map[uint64]sim.Time{}}
		old := &mapReassembly{partials: map[uint64]*mapPartial{}}
		var oldDelivered []uint64
		lost := map[uint64]bool{}   // SDUs with a lost byte
		gaveUp := map[uint64]bool{} // SDUs a table or the map table gave up on
		var now sim.Time
		for len(prog) > 0 {
			switch op := next(); op % 4 {
			case 0, 1:
				pdu := &PDU{}
				for range 1 + op%2 {
					k := next() % len(streams)
					st := &streams[k]
					n := 1 + next()%(st.sdu.Size-st.sent)
					seg := Segment{SDU: st.sdu, Offset: st.sent, Len: n, Last: st.sent+n == st.sdu.Size}
					pdu.Segments = append(pdu.Segments, seg)
					if st.sent += n; seg.Last {
						fresh(k)
					}
				}
				if op >= 224 { // lost on the air
					for _, seg := range pdu.Segments {
						lost[seg.SDU.ID] = true
						am.seen[seg.SDU.ID] = true
					}
					before := am.held()
					am.lose(pdu)
					for _, id := range gone(before, am.held(), nil) {
						gaveUp[id] = true
					}
					break
				}
				for _, seg := range pdu.Segments {
					um.seen[seg.SDU.ID] = true
					am.seen[seg.SDU.ID] = true
				}
				for _, tab := range []*fuzzTable{um, am} {
					for _, id := range tab.foldAt(pdu, now) {
						if !lost[id] {
							t.Fatalf("SDU %d given up on at a fold, with no byte of it lost", id)
						}
						gaveUp[id] = true
					}
				}
				old.fold(pdu, now, func(s *SDU) { oldDelivered = append(oldDelivered, s.ID) })
			case 2:
				now += sim.Time(next()) * sim.Millisecond
			case 3:
				before := um.held()
				um.expire(now)
				for _, id := range gone(before, um.held(), nil) {
					if at, ok := um.overtaken[id]; !ok || now-at < DefaultTReassembly {
						t.Fatalf("SDU %d discarded at %v; overtaken at %v (%v)", id, now, at, ok)
					}
					gaveUp[id] = true
				}
				for id, p := range old.partials {
					if now-p.lastSeen >= DefaultTReassembly {
						gaveUp[id] = true
					}
				}
				old.expire(now, DefaultTReassembly)
			}
			for _, tab := range []*fuzzTable{um, am} {
				open := 0
				for id := range tab.seen {
					if !slices.Contains(tab.delivered, id) && !slices.Contains(tab.held(), id) {
						open++
					}
				}
				if uint64(open) != tab.discarded || uint64(len(tab.delivered)) != tab.reassembly.delivered {
					t.Fatalf("%s: %d SDUs seen and neither partial nor delivered, %d counted discarded; %d delivered, %d counted",
						tab.name, open, tab.discarded, len(tab.delivered), tab.reassembly.delivered)
				}
				for i, id := range tab.delivered {
					if lost[id] || slices.Contains(tab.delivered[:i], id) {
						t.Fatalf("%s: SDU %d delivered with a byte lost (%v) or twice: %v", tab.name, id, lost[id], tab.delivered)
					}
				}
				agreed := func(ids []uint64) []uint64 {
					return slices.DeleteFunc(slices.Clone(ids), func(id uint64) bool { return gaveUp[id] || lost[id] })
				}
				if got, want := agreed(tab.delivered), agreed(oldDelivered); !slices.Equal(got, want) {
					t.Fatalf("%s: delivered %v where the rules agree, the map table %v", tab.name, got, want)
				}
				walk := func(r *reassembly) func(*snapshot.Walker) {
					return func(w *snapshot.Walker) {
						c := NewRefs(w)
						c.partials(&r.partials)
						c.gone(&r.gone)
					}
				}
				var restored reassembly
				snapshottest.RoundTrip(t, walk(&tab.reassembly), walk(&restored))
			}
		}
	})
}
