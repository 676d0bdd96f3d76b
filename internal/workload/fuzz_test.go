package workload

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"outran/internal/rng"
	"outran/internal/sim"
)

// FuzzSortByStart: sortByStart puts any schedule, of any length, in
// the order a stable sort by start gives. The starts cycle through the input eight
// bytes at a time, shifted right by shift: short inputs give runs of
// ties, large shifts zeros, small ones starts past 2^40 and negative
// ones. Generate itself never makes a negative start — warp clamps to
// [0, span], every class starts at its window's begin, itself at or
// after 0, plus a non-negative offset, and Validate and ReadTrace reject
// negative Extra and trace starts — but the radix keys are offsets from
// the earliest start taken as unsigned, so the sort does not rely on it.
func FuzzSortByStart(f *testing.F) {
	f.Add(uint16(300), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint16(1000), uint8(60), []byte("ties everywhere"))
	f.Add(uint16(257), uint8(20), []byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint16(40), uint8(3), []byte{9, 8, 7})
	f.Fuzz(func(t *testing.T, n uint16, shift uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		var word [8]byte
		flows := make([]FlowSpec, int(n)%4096)
		for i := range flows {
			for j := range word {
				word[j] = data[(8*i+j)%len(data)]
			}
			start := int64(binary.LittleEndian.Uint64(word[:])) >> (shift % 64)
			flows[i] = FlowSpec{Start: sim.Time(start), UE: i}
		}
		want := slices.Clone(flows)
		slices.SortStableFunc(want, func(a, b FlowSpec) int { return cmp.Compare(a.Start, b.Start) })
		sortByStart(flows, nil)
		if !slices.Equal(flows, want) {
			t.Fatalf("%d flows: sortByStart's order differs from the stable sort's", len(flows))
		}
	})
}

// FuzzWorkloadReadTrace feeds ReadTrace arbitrary bytes. It must never
// panic; a schedule it accepts is in start order, writes back through
// WriteTrace to a trace that reads back to the same schedule and writes
// again to the same bytes; and that schedule with two rows of different
// starts swapped is rejected.
func FuzzWorkloadReadTrace(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteTrace(&valid, []FlowSpec{{Start: 0, UE: 1, Size: 10}, {Start: 0, UE: 0, Size: 3, Incast: true}, {Start: 1 << 41, UE: 7, Size: 1 << 40}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	hdr := `{"format":"outran-workload-trace","version":1}` + "\n"
	f.Add([]byte(hdr + `{"t":5,"ue":0,"size":10}` + "\n" + `{"t":4,"ue":0,"size":10}` + "\n"))
	f.Add([]byte(hdr + `{"size":2,"ue":3,"t":9,"extra":[1]} {"t":9,"ue":0,"size":1,"incast":false}`))
	f.Add([]byte(hdr + `{"t":1e3,"ue":0,"size":10}`))
	f.Add([]byte("\xff{["))
	f.Fuzz(func(t *testing.T, data []byte) {
		flows, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !slices.IsSortedFunc(flows, func(a, b FlowSpec) int { return cmp.Compare(a.Start, b.Start) }) {
			t.Fatalf("accepted an out-of-order trace: %+v", flows)
		}
		var once, twice bytes.Buffer
		if err := WriteTrace(&once, flows); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reading the rewritten trace: %v\n%s", err, once.Bytes())
		}
		if !slices.Equal(back, flows) {
			t.Fatalf("rewritten trace reads back differently:\n accepted %+v\n back     %+v", flows, back)
		}
		if err := WriteTrace(&twice, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("a trace rewritten twice changed bytes:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
		for i := 1; i < len(flows); i++ {
			if flows[i-1].Start == flows[i].Start {
				continue
			}
			swapped := slices.Clone(flows)
			swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
			var b bytes.Buffer
			if err := WriteTrace(&b, swapped); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadTrace(&b); err == nil {
				t.Fatalf("accepted rows %d and %d swapped", i-1, i)
			}
			break
		}
	})
}

// FuzzSpecValidate drives Validate and Generate over a one-class spec
// with every float and int field free. Validate never panics; a spec it
// accepts has only finite floats; Generate, for a 2 s span that must
// hold 64 flows, returns promptly with a schedule or an error and never
// panics; and every flow it returns starts within the span and carries
// at least one byte.
func FuzzSpecValidate(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, int64(0), int64(0), 0, int64(0))
	f.Add(uint8(1), uint8(1), 0.9, 0.3, 0.1, 0.9, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 64, int64(1000), int64(sim.Millisecond), 0, int64(sim.Second))
	f.Add(uint8(5), uint8(2), 0.5, 0.0, 0.0, 0.0, 0.0, 0.4, 0.2, 4.0, 0.0, 0.0, 0, int64(8<<10), int64(0), 30, int64(0))
	f.Add(uint8(2), uint8(3), 0.7, 1.0, 0.25, 0.5, 0.0, 0.0, 0.0, 0.0, 0.25, 1.75, 0, int64(128), int64(5*sim.Second), 0, int64(0))
	f.Add(uint8(4), uint8(0), math.NaN(), math.Inf(1), 0.0, 0.0, math.NaN(), 0.0, 0.0, math.Inf(1), 0.0, 0.0, -1, int64(-1), int64(-1), -1, int64(-1))
	// Units and bursts at their bounds: products that overflowed int64
	// before the bounds and the overflow-free ceilings.
	f.Add(uint8(4), uint8(0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, int64(1<<40), int64(1), 0, int64(0))
	f.Add(uint8(5), uint8(0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, int64(1<<40), int64(0), 1<<20, int64(0))
	f.Add(uint8(0), uint8(2), 1e9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e6, 0.0, 0.0, 0, int64(0), int64(0), 0, int64(0))
	kinds := []ClassKind{ClassWeb, ClassVideo, ClassIoT, ClassBulk, ClassVoice, ClassIncast}
	envs := []EnvelopeKind{EnvNone, EnvDiurnal, EnvFlashCrowd, EnvRamp}
	f.Fuzz(func(t *testing.T, kind, envKind uint8, load, share, begin, end, depth, at, width, gain, from, to float64,
		maxFlows int, size, every int64, burst int, period int64) {
		s := Spec{
			Load:     load,
			MaxFlows: maxFlows,
			Classes: []ClassSpec{{
				Kind: kinds[int(kind)%len(kinds)], Share: share, Begin: begin, End: end,
				Size: size, Every: sim.Time(every), Burst: burst,
			}},
			Envelope: Envelope{
				Kind: envs[int(envKind)%len(envs)], Period: sim.Time(period),
				Depth: depth, At: at, Width: width, Gain: gain, From: from, To: to,
			},
		}
		if s.Validate() != nil {
			return
		}
		for _, v := range []float64{load, share, begin, end, depth, at, width, gain, from, to} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a spec with a non-finite float: %+v", s)
			}
		}
		env := Env{NumUEs: 4, CapacityBps: 10e6, Span: 2 * sim.Second, Flows: 64}
		if s.MaxFlows == env.Flows {
			// The schedule is cut at MaxFlows, so its length says nothing
			// about its parts' and Env.Flows cannot bound the build: it
			// costs what the spec's own run costs (see Generate), which
			// a large Load makes arbitrarily long.
			return
		}
		began := time.Now()
		sch, err := s.Generate(env, rng.New(1))
		if took := time.Since(began); took > 2*time.Second {
			t.Fatalf("Generate took %v: %+v", took, s)
		}
		if err != nil {
			return
		}
		src := sch.Source()
		for fl, ok := src.Next(); ok; fl, ok = src.Next() {
			if fl.Start < 0 || fl.Start > env.Span || fl.Size <= 0 {
				t.Fatalf("flow %+v outside [0, %v] or empty: %+v", fl, env.Span, s)
			}
		}
	})
}
