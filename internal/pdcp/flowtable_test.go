package pdcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/snapshot/snapshottest"
)

// refTable is the flow table as it was before it became a sorted slice
// of packed entries, frozen as the oracle: a map of heap entries with
// the byte count and the priority in fields of their own, walked in the
// order ip.SortTuples gives its keys. Together with the counters Tx.Walk
// carries, it writes what Tx wrote.
type refTable struct {
	cls       Classifier
	flows     map[ip.FiveTuple]*refEntry
	keys      []ip.FiveTuple // sorted keys, nil when flows changed since
	submitted uint64
	imported  bool
	levels    []levelChange
	// What the program reached: the highest priority and byte count a
	// flow held, and how many imported records replaced an entry at a
	// non-zero priority.
	maxPrio      int
	maxSent      int64
	importedOver int
}

type refEntry struct {
	sentBytes int64
	lastSeen  sim.Time
	prio      int
}

// levelChange is one OnLevelChange observation.
type levelChange struct {
	flow  ip.FiveTuple
	level int
	sent  int64
}

func (r *refTable) sorted() []ip.FiveTuple {
	if r.keys == nil {
		r.keys = make([]ip.FiveTuple, 0, len(r.flows))
		for k := range r.flows {
			r.keys = append(r.keys, k)
		}
		ip.SortTuples(r.keys)
	}
	return r.keys
}

func (r *refTable) submit(tuple ip.FiveTuple, payload int, now sim.Time) int {
	fe := r.flows[tuple]
	if fe == nil {
		if len(r.flows) >= maxFlowEntries {
			// Which flows go does not depend on the visit order.
			for k, fe := range r.flows {
				if now-fe.lastSeen > flowIdleEviction {
					delete(r.flows, k)
				}
			}
		}
		fe = &refEntry{}
		r.flows[tuple] = fe
		r.keys = nil
	}
	prio := r.cls.Classify(fe.sentBytes, FlowMeta{FlowSize: -1})
	if prio != fe.prio {
		r.levels = append(r.levels, levelChange{tuple, prio, fe.sentBytes})
		fe.prio = prio
	}
	fe.sentBytes += int64(payload)
	fe.lastSeen = now
	r.submitted++
	r.maxPrio, r.maxSent = max(r.maxPrio, prio), max(r.maxSent, fe.sentBytes)
	return prio
}

func (r *refTable) export() []byte {
	var out []byte
	for _, k := range r.sorted() {
		var rec [flowRecordLen]byte
		copy(rec[0:4], k.Src[:])
		copy(rec[4:8], k.Dst[:])
		binary.BigEndian.PutUint16(rec[8:10], k.SrcPort)
		binary.BigEndian.PutUint16(rec[10:12], k.DstPort)
		rec[12] = k.Proto
		binary.BigEndian.PutUint32(rec[37:41], uint32(min(r.flows[k].sentBytes, 0xffffffff)))
		out = append(out, rec[:]...)
	}
	return out
}

func (r *refTable) importBlob(data []byte, now sim.Time) error {
	if r.imported {
		return errAlreadyImported
	}
	r.imported = true
	for off := 0; off < len(data); off += flowRecordLen {
		rec := data[off:]
		var k ip.FiveTuple
		copy(k.Src[:], rec[0:4])
		copy(k.Dst[:], rec[4:8])
		k.SrcPort = binary.BigEndian.Uint16(rec[8:10])
		k.DstPort = binary.BigEndian.Uint16(rec[10:12])
		k.Proto = rec[12]
		if fe := r.flows[k]; fe != nil && fe.prio != 0 {
			r.importedOver++
		}
		r.flows[k] = &refEntry{sentBytes: int64(binary.BigEndian.Uint32(rec[37:41])), lastSeen: now}
	}
	r.keys = nil
	return nil
}

// walk is Tx.Walk's layout for a delayed-SN entity that has numbered
// nothing and inspected every packet cleanly.
func (r *refTable) walk() []byte {
	return snapshottest.Encode(func(w *snapshot.Walker) {
		nextSN, n, inspectErr := uint32(0), uint32(len(r.flows)), uint64(0)
		w.Mark(tagTx)
		w.U32(&nextSN)
		w.U32(&n)
		for _, k := range r.sorted() {
			fe := r.flows[k]
			lastSeen := int64(fe.lastSeen)
			k.Walk(w)
			w.I64(&fe.sentBytes)
			w.I64(&lastSeen)
			w.Int(&fe.prio)
		}
		w.U64(&r.submitted)
		w.U64(&inspectErr)
	})
}

// flowTableRun drives a Tx and the reference through one program.
type flowTableRun struct {
	t      testing.TB
	eng    *sim.Engine
	tx     *Tx
	ref    *refTable
	levels []levelChange
	port   uint16
	scale  int // payload multiplier
	// swept counts operations after which the table held fewer flows
	// without a reset: the idle sweep at the cap ran.
	swept int
}

// wideCls is a 65 536-queue MLFQ with a threshold every 64 KiB, the
// most queues core.Config admits: its priorities fill the 16 bits a
// flow entry keeps them in.
type wideCls struct{}

func (wideCls) Classify(sent int64, _ FlowMeta) int { return int(min(sent>>16, 1<<16-1)) }

// newFlowTableRun starts a run under a three-queue MLFQ with the
// program's payloads as given or, wide, under wideCls with every
// payload 2^20 times larger, so a flow's sent bytes pass 2^32 within a
// few packets.
func newFlowTableRun(t testing.TB, wide bool) *flowTableRun {
	var cls Classifier = mlfqCls{core.MustMLFQ([]int64{3000, 60000})}
	scale := 1
	if wide {
		cls, scale = wideCls{}, 1<<20
	}
	eng := &sim.Engine{}
	var seq uint64
	tx, err := NewTx(eng, TxConfig{SNBits: 12, DelayedSN: true}, cls, &seq)
	if err != nil {
		t.Fatal(err)
	}
	r := &flowTableRun{t: t, eng: eng, tx: tx, ref: &refTable{cls: cls, flows: map[ip.FiveTuple]*refEntry{}},
		port: 65535 - 3000, scale: scale} // the counter wraps within the first few bursts
	tx.OnLevelChange = func(flow ip.FiveTuple, level int, sent int64) {
		r.levels = append(r.levels, levelChange{flow, level, sent})
	}
	return r
}

// tuple is the flow on port to UE ue of four.
func tuple(ue byte, port uint16) ip.FiveTuple {
	return ip.FiveTuple{Src: ip.AddrFrom(10, 0, 0, 1), Dst: ip.AddrFrom(10, 1, 0, ue%4), SrcPort: 443, DstPort: port, Proto: ip.ProtoTCP}
}

// nextPort advances the port counter as the cell's allocTuple does.
func (r *flowTableRun) nextPort() uint16 {
	if r.port++; r.port == 0 {
		r.port = 10000
	}
	return r.port
}

func (r *flowTableRun) submit(ft ip.FiveTuple, payload int) {
	r.t.Helper()
	payload *= r.scale
	sdu := r.tx.Submit(ip.Packet{Tuple: ft, PayloadLen: payload}, FlowMeta{FlowSize: -1})
	want := r.ref.submit(ft, payload, r.eng.Now())
	if sdu == nil || sdu.Priority != want {
		r.t.Fatalf("submit %v: SDU %v, reference tags priority %d", ft, sdu, want)
	}
}

// step runs one three-byte operation.
func (r *flowTableRun) step(op, a, b byte) {
	r.t.Helper()
	switch op % 6 {
	case 0: // a packet on a tracked flow, or on an arbitrary port, maybe new and mid-table
		if keys := r.ref.sorted(); b&1 == 0 && len(keys) > 0 {
			r.submit(keys[(int(a)<<8|int(b))%len(keys)], 200+int(b)*40)
		} else {
			r.submit(tuple(a, 10000+uint16(a)<<8|uint16(b)), 200+int(b)*40)
		}
	case 1: // a new flow on the next port
		r.submit(tuple(a, r.nextPort()), 100+int(b)*10)
	case 2: // a burst of new flows
		for i := 0; i < (int(a)%64+1)*32; i++ {
			r.submit(tuple(byte(i)+b, r.nextPort()), 100)
		}
	case 3: // time passes
		r.eng.RunUntil(r.eng.Now() + sim.Time(b)*100*sim.Millisecond)
	case 4: // a handover blob: records over the tracked ports' range, in any order, repeats allowed
		g := rand.New(rand.NewSource(int64(a)<<8 | int64(b)))
		var blob []byte
		for i := 0; i < int(a%16)+1; i++ {
			ft := tuple(byte(g.Intn(4)), uint16(10000+g.Intn(2000)))
			if keys := r.ref.sorted(); i%3 == 0 && len(keys) > 0 {
				ft = keys[g.Intn(len(keys))]
			}
			var rec [flowRecordLen]byte
			copy(rec[0:4], ft.Src[:])
			copy(rec[4:8], ft.Dst[:])
			binary.BigEndian.PutUint16(rec[8:10], ft.SrcPort)
			binary.BigEndian.PutUint16(rec[10:12], ft.DstPort)
			rec[12] = ft.Proto
			binary.BigEndian.PutUint32(rec[37:41], uint32(g.Intn(100000)))
			blob = append(blob, rec[:]...)
		}
		got, want := r.tx.ImportFlowState(blob), r.ref.importBlob(blob, r.eng.Now())
		if (got == nil) != (want == nil) {
			r.t.Fatalf("import: %v, reference %v", got, want)
		}
	case 5:
		r.tx.ResetFlowStates()
		for _, fe := range r.ref.flows {
			fe.sentBytes = 0
		}
	}
}

// check compares everything the table shows against the reference.
func (r *flowTableRun) check(after string) {
	r.t.Helper()
	keys := r.ref.sorted()
	if got := r.tx.FlowTuples(); !slices.Equal(got, keys) {
		r.t.Fatalf("after %s: FlowTuples lists %d flows, reference %d", after, len(got), len(keys))
	}
	if n := r.tx.FlowCount(); n != len(keys) {
		r.t.Fatalf("after %s: FlowCount %d, reference %d", after, n, len(keys))
	}
	for _, k := range keys {
		if got, want := r.tx.SentBytes(k), r.ref.flows[k].sentBytes; got != want {
			r.t.Fatalf("after %s: SentBytes(%v) = %d, reference %d", after, k, got, want)
		}
	}
	if got := r.tx.SentBytes(tuple(0, 9999)); got != 0 {
		r.t.Fatalf("after %s: an untracked flow has %d sent bytes", after, got)
	}
	if got, want := r.tx.ExportFlowState(), r.ref.export(); !bytes.Equal(got, want) {
		r.t.Fatalf("after %s: ExportFlowState differs from the reference (%d vs %d bytes)", after, len(got), len(want))
	}
	if got, want := snapshottest.Encode(r.tx.Walk), r.ref.walk(); !bytes.Equal(got, want) {
		r.t.Fatalf("after %s: Walk differs from the reference (%d vs %d bytes)", after, len(got), len(want))
	}
	if !reflect.DeepEqual(r.levels, r.ref.levels) {
		r.t.Fatalf("after %s: %d level changes, reference %d", after, len(r.levels), len(r.ref.levels))
	}
}

// run executes a program of three-byte operations, checking after each.
func (r *flowTableRun) run(prog []byte) {
	r.t.Helper()
	for i := 0; i+3 <= len(prog); i += 3 {
		before := r.tx.FlowCount()
		r.step(prog[i], prog[i+1], prog[i+2])
		r.check(fmt.Sprintf("operation %d (%d %d %d)", i/3, prog[i]%6, prog[i+1], prog[i+2]))
		if prog[i]%6 != 5 && r.tx.FlowCount() < before {
			r.swept++
		}
	}
}

// sweepProgram fills the table with flows across the port wrap, lets
// them go idle, and adds a live batch that crosses the cap: the sweep
// must drop exactly the idle flows. Then it keeps going: packets, a new
// flow, a handover blob, a reset, more flows.
var sweepProgram = []byte{
	2, 63, 0, 2, 36, 0, // 2 048 + 1 184 flows, the counter wrapping past 65535
	3, 0, 120, // 12 s pass
	2, 63, 1, 2, 63, 2, 2, 63, 3, 2, 27, 4, // 7 040 more: the 4 961st finds the table at the cap
	0, 9, 8, 0, 3, 1, 1, 2, 3,
	4, 7, 77, 5, 0, 0, 0, 1, 2, 1, 4, 4,
}

// importProgram raises a flow to priority 1 (to a high one under the
// wide classifier) and imports a record over it, which resets its
// priority to 0.
var importProgram = []byte{1, 0, 0, 0, 0, 254, 0, 0, 0, 4, 0, 0, 0, 0, 0}

// TestFlowTableMatchesReference runs the sweep program and seeded random
// programs against the reference table, each under both classifiers.
// The wide runs must fill the priority's 16 bits, push a flow's sent
// bytes past 2^32, and import over an entry at a non-zero priority.
func TestFlowTableMatchesReference(t *testing.T) {
	g := rand.New(rand.NewSource(27))
	progs := [][]byte{sweepProgram, importProgram}
	for i := 0; i < 20; i++ {
		prog := make([]byte, 3*100)
		g.Read(prog)
		for j := 0; j < len(prog); j += 3 {
			if prog[j]%6 == 2 {
				prog[j+1] %= 8 // bursts of up to 256 flows: the table stays under the cap
			}
		}
		progs = append(progs, prog)
	}
	for _, wide := range []bool{false, true} {
		runs := progs
		if wide {
			runs = progs[:2+5] // the two fixed programs and a quarter of the random ones
		}
		maxPrio, maxSent, importedOver := 0, int64(0), 0
		for i, prog := range runs {
			r := newFlowTableRun(t, wide)
			r.run(prog)
			if i == 0 && r.swept == 0 {
				t.Fatalf("wide=%v: the idle sweep at the cap never ran", wide)
			}
			maxPrio, maxSent = max(maxPrio, r.ref.maxPrio), max(maxSent, r.ref.maxSent)
			importedOver += r.ref.importedOver
		}
		if importedOver == 0 {
			t.Errorf("wide=%v: no import replaced an entry at a non-zero priority", wide)
		}
		if wide && (maxPrio != 1<<16-1 || maxSent <= 1<<32) {
			t.Errorf("wide runs reached priority %d and %d sent bytes, want 2^16-1 and past 2^32", maxPrio, maxSent)
		}
	}
}

// FuzzFlowTable drives the packed flow table and the frozen map-and-sort
// reference through the same Submit, ImportFlowState, ResetFlowStates,
// clock and idle-sweep operations, and requires FlowTuples, SentBytes,
// the level changes, the ExportFlowState blob and the Walk bytes to
// agree after each one. Each program runs under both classifiers.
func FuzzFlowTable(f *testing.F) {
	f.Add(sweepProgram)
	f.Add(importProgram)
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 0, 0, 4, 3, 3, 0, 1, 1, 5, 0, 0, 0, 2, 2})
	f.Add([]byte{2, 95, 0, 0, 7, 7, 3, 0, 101, 2, 160, 3, 0, 200, 200})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*128 {
			prog = prog[:3*128]
		}
		newFlowTableRun(t, false).run(prog)
		newFlowTableRun(t, true).run(prog)
	})
}
