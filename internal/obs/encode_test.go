package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"outran/internal/probetest"
	"outran/internal/sim"
)

// stdlibLine is the oracle: the line encoding/json writes for ev.
func stdlibLine(ev *Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(ev)
	return buf.Bytes(), err
}

// checkAgainstStdlib encodes ev both ways and compares bytes (or, for
// an event JSON cannot carry, that both sides refuse it).
func checkAgainstStdlib(t testing.TB, ev *Event) {
	t.Helper()
	want, err := stdlibLine(ev)
	got, ok := appendEvent(nil, ev)
	if err != nil {
		if ok {
			t.Fatalf("encoding/json rejects %+v (%v) but appendEvent encoded it: %s", *ev, err, got)
		}
		return
	}
	if !ok {
		t.Fatalf("appendEvent rejects %+v, encoding/json writes %s", *ev, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding differs for %+v:\n appendEvent   %s encoding/json %s", *ev, got, want)
	}
}

// setByKind sets one Event field, reached through reflection, to the
// argument of its kind.
func setByKind(fv reflect.Value, i int64, u uint64, f float64, s string, b bool) {
	switch fv.Kind() {
	case reflect.Int, reflect.Int64:
		fv.SetInt(i)
	case reflect.Uint64:
		fv.SetUint(u)
	case reflect.Float64:
		fv.SetFloat(f)
	case reflect.String:
		fv.SetString(s)
	case reflect.Bool:
		fv.SetBool(b)
	default:
		panic("obs: an Event field has kind " + fv.Kind().String() + ", which the encoder tests do not know")
	}
}

// fill sets every field of an Event through reflection — so a field
// added to the struct is populated without this file knowing it — to
// the argument of its kind.
func fill(i int64, u uint64, f float64, s string, b bool) Event {
	var ev Event
	v := reflect.ValueOf(&ev).Elem()
	for k := 0; k < v.NumField(); k++ {
		setByKind(v.Field(k), i, u, f, s, b)
	}
	return ev
}

// fieldsOfKind returns the indices of Event's fields of one kind.
func fieldsOfKind(kind reflect.Kind) []int {
	var out []int
	typ := reflect.TypeOf(Event{})
	for k := 0; k < typ.NumField(); k++ {
		if typ.Field(k).Type.Kind() == kind {
			out = append(out, k)
		}
	}
	return out
}

var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, 1.0 / 3.0, 0.3141592653589793, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-10, 1e-100,
		1e20, 9.99e20, 1e21, -1e21, 1.23e25, 1e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 5e6, 0.9008568660968663, 123456789.125, 1e-5, 100, 4.9e-324, 1e22,
	}
	edgeInts = []int64{0, 1, -1, 9, 10, 99, 100, -100, 1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64}
	// Written with escapes so the source stays ASCII: quotes, backslash,
	// the HTML set, every control byte class, DEL, U+2028/2029, invalid
	// and truncated UTF-8, non-ASCII of every width.
	edgeStrings = []string{
		"", "x", "10.0.0.1:443>10.1.0.7:50123/6", "OutRAN(PF,eps=0.2)", `a"b\c`, "<script>&amp;</script>",
		"\x00\x01\x07\b\t\n\v\f\r\x1b\x1f \x7f", "\u2028mid\u2029", "\u2027\u202a", "caf\u00e9 \u4e16\u754c \U0001f600",
		"\xff", "a\xc3", "\xe2\x80", "ok\xe2\x80\xa8\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\ufffd", "tail\\",
	}
)

// TestAppendEventMatchesStdlib is the differential oracle: on every
// edge value in every field, alone and all together, and on random
// events, appendEvent equals json.NewEncoder(&buf).Encode(&ev) byte for
// byte.
func TestAppendEventMatchesStdlib(t *testing.T) {
	checkAgainstStdlib(t, &Event{})
	checkAgainstStdlib(t, &Event{T: -5, Type: EvTTI})

	// Every field populated, over the cross product of a few values.
	for _, i := range edgeInts {
		for _, f := range []float64{1.5, -1e-7, 1e21} {
			ev := fill(i, uint64(i), f, `f<"\>`, true)
			checkAgainstStdlib(t, &ev)
		}
	}
	// Each edge value in each field of its kind, the rest zero.
	for _, k := range fieldsOfKind(reflect.Float64) {
		for _, f := range edgeFloats {
			ev := Event{T: 1, Type: EvDecision}
			reflect.ValueOf(&ev).Elem().Field(k).SetFloat(f)
			checkAgainstStdlib(t, &ev)
		}
	}
	for _, kind := range []reflect.Kind{reflect.Int, reflect.Int64} {
		for _, k := range fieldsOfKind(kind) {
			for _, i := range edgeInts {
				ev := Event{Type: EvRLCTx}
				reflect.ValueOf(&ev).Elem().Field(k).SetInt(i)
				checkAgainstStdlib(t, &ev)
			}
		}
	}
	for _, u := range []uint64{0, 1, 42, math.MaxUint64} {
		checkAgainstStdlib(t, &Event{Type: EvMeta, Seed: u})
	}
	for _, k := range fieldsOfKind(reflect.String) {
		for _, s := range edgeStrings {
			var ev Event
			reflect.ValueOf(&ev).Elem().Field(k).SetString(s)
			checkAgainstStdlib(t, &ev)
		}
	}

	// Random events: random bit patterns for floats (NaNs included —
	// both sides must refuse those), random bytes for strings, and each
	// field zeroed half the time so omission is exercised too.
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		var ev Event
		v := reflect.ValueOf(&ev).Elem()
		for k := 0; k < v.NumField(); k++ {
			if r.Intn(2) == 0 {
				continue
			}
			f := math.Float64frombits(r.Uint64())
			if r.Intn(2) == 0 {
				f = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
			}
			str := make([]byte, r.Intn(12))
			r.Read(str)
			setByKind(v.Field(k), int64(r.Uint64())>>uint(r.Intn(64)), r.Uint64()>>uint(r.Intn(64)), f, string(str), true)
		}
		checkAgainstStdlib(t, &ev)
	}
}

// TestEncoderKeysMatchEventTags is the drift guard: the keys appendEvent
// writes for a fully populated event, in order, are exactly the JSON
// tags of Event's fields in struct order. Adding a field without
// teaching the encoder fails here (and in the differential test)
// instead of silently dropping it from traces.
func TestEncoderKeysMatchEventTags(t *testing.T) {
	var want []string
	typ := reflect.TypeOf(Event{})
	for k := 0; k < typ.NumField(); k++ {
		tag := typ.Field(k).Tag.Get("json")
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" || name == "-" {
			t.Fatalf("Event.%s has no JSON name; the hand-written encoder needs one", typ.Field(k).Name)
		}
		if k >= 2 && opts != "omitempty" {
			t.Errorf("Event.%s is tagged %q; the encoder omits every field after type when zero", typ.Field(k).Name, tag)
		}
		want = append(want, name)
	}

	ev := fill(7, 7, 7.5, "s", true)
	line, ok := appendEvent(nil, &ev)
	if !ok {
		t.Fatal("appendEvent rejected a finite event")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("line does not open an object: %v %v", tok, err)
	}
	var got []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, key.(string))
		if _, err := dec.Token(); err != nil { // the scalar value
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("encoder keys differ from Event's JSON tags:\n encoder %v\n struct  %v", got, want)
	}
}

// TestNonFiniteFloatIsStickyError: a NaN or an infinity in any float
// field makes the sink record the error the library reports, write
// nothing for that event and drop everything after it, as before.
func TestNonFiniteFloatIsStickyError(t *testing.T) {
	good := Event{T: 1, Type: EvTTI, UsedRBs: 3}
	goodLine, _ := stdlibLine(&good)
	for _, k := range fieldsOfKind(reflect.Float64) {
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad := Event{T: 2, Type: EvSESample, SE: 0.5}
			reflect.ValueOf(&bad).Elem().Field(k).SetFloat(f)
			_, want := stdlibLine(&bad)
			if want == nil {
				t.Fatal("encoding/json accepted a non-finite float")
			}

			var buf bytes.Buffer
			s := NewJSONLSink(&buf)
			s.Emit(&good)
			s.Emit(&bad)
			s.Emit(&good)
			got := s.Close()
			if got == nil || reflect.TypeOf(got) != reflect.TypeOf(want) || got.Error() != want.Error() {
				t.Fatalf("field %d = %v: Close() = %#v, want the library's %#v", k, f, got, want)
			}
			if !bytes.Equal(buf.Bytes(), goodLine) {
				t.Fatalf("field %d = %v: sink wrote %q, want only the first event %q", k, f, buf.Bytes(), goodLine)
			}
		}
	}
}

// FuzzEventEncoding lets the fuzzer choose the scalars; every field of
// a kind gets the same value, which covers all fields populated, and
// the mask zeroes fields to cover omission.
func FuzzEventEncoding(f *testing.F) {
	f.Add(int64(0), uint64(0), 0.0, "", false, uint64(0))
	f.Add(int64(-1), uint64(math.MaxUint64), 1e-7, "10.0.0.1:443>10.1.0.7:50123/6", true, uint64(math.MaxUint64))
	f.Add(int64(math.MinInt64), uint64(1), 1e21, "\u2028<\xff&\"\\", true, uint64(0x5555555555))
	f.Add(int64(12345), uint64(42), math.MaxFloat64, "\x00\x1f\x7f", false, uint64(0xaaaaaaaaaa))
	f.Add(int64(1), uint64(1), math.NaN(), "x", true, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, i int64, u uint64, fl float64, s string, b bool, mask uint64) {
		ev := fill(i, u, fl, s, b)
		v := reflect.ValueOf(&ev).Elem()
		for k := 0; k < v.NumField(); k++ {
			if mask&(1<<uint(k)) == 0 {
				v.Field(k).SetZero()
			}
		}
		checkAgainstStdlib(t, &ev)
	})
}

// streamOracle is what a JSONLSink must write for evs: appendEvent's
// lines up to the first event JSON cannot carry, and for that event the
// library's error. ends[i] is len(want) once evs[:i+1] are through.
func streamOracle(evs []Event) (want []byte, ends []int, wantErr error) {
	ends = make([]int, len(evs))
	for i := range evs {
		if wantErr == nil {
			line, ok := appendEvent(nil, &evs[i])
			if ok {
				want = append(want, line...)
			} else {
				_, wantErr = json.Marshal(&evs[i])
			}
		}
		ends[i] = len(want)
	}
	return want, ends, wantErr
}

// checkStream feeds evs through one JSONLSink, behind a Tracer as in a
// run (so the sink sees one reused *Event), and compares its bytes and
// its Close error with streamOracle's. After each event whose index is
// in drains it calls BytesWritten, which must count the oracle's bytes
// so far.
func checkStream(t testing.TB, evs []Event, drains ...int) {
	t.Helper()
	want, ends, wantErr := streamOracle(evs)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer(sink)
	for i, ev := range evs {
		tr.Emit(ev)
		if len(drains) > 0 && drains[0] == i {
			drains = drains[1:]
			if n := sink.BytesWritten(); n != int64(ends[i]) {
				tr.Close()
				t.Fatalf("BytesWritten after event %d of %d = %d, want %d", i, len(evs), n, ends[i])
			}
		}
	}
	err := tr.Close()
	if (err == nil) != (wantErr == nil) || err != nil && (reflect.TypeOf(err) != reflect.TypeOf(wantErr) || err.Error() != wantErr.Error()) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d of %d events differs:\n sink        %s appendEvent %s", i+1, len(evs), gl[i], wl[i])
			}
		}
		t.Fatalf("sink wrote %d lines, appendEvent %d", len(gl), len(wl))
	}
}

// Palettes the stream generator draws field values from: small enough
// that values repeat, so the sink's memos hit, and wide enough to carry
// every edge value of the differential test.
var (
	streamInts    = append([]int64{0, 1, 2, 3, 7, 9, 10, 24, 25}, edgeInts...)
	streamUints   = []uint64{0, 1, 42, math.MaxUint64}
	streamFloats  = append([]float64{0.5, 1.0 / 3.0, 2.5e-7}, edgeFloats...)
	streamStrings = append([]string{EvDecision, EvTTI, EvSESample, EvHARQ}, edgeStrings...)
)

// streamFrom decodes bytes into an event stream, two bytes a step. A
// step either emits the current event or sets one of its fields (picked
// by reflection, so a new Event field is covered) to a palette value;
// value bytes 254 and 255 give a float field NaN and +Inf, which end
// the stream's output. An emit step whose value byte is 7 mod 8 also
// drains the sink after its event: drains holds those events' indices.
// The stream starts from a decision, so a run of steps that set only rb
// is a decision run.
func streamFrom(data []byte) (out []Event, drains []int) {
	ev := Event{T: 1, Type: EvDecision}
	v := reflect.ValueOf(&ev).Elem()
	for ; len(data) >= 2; data = data[2:] {
		k, x := int(data[0])%(v.NumField()+1), int(data[1])
		if k == v.NumField() {
			out = append(out, ev)
			if x%8 == 7 {
				drains = append(drains, len(out)-1)
			}
			continue
		}
		f := streamFloats[x%len(streamFloats)]
		switch x {
		case 254:
			f = math.NaN()
		case 255:
			f = math.Inf(1)
		}
		setByKind(v.Field(k), streamInts[x%len(streamInts)], streamUints[x%len(streamUints)],
			f, streamStrings[x%len(streamStrings)], x%2 == 1)
	}
	return out, drains
}

// TestJSONLSinkStreamMatchesAppendEvent is the oracle for the sink's
// memos: whatever the event sequence, one JSONLSink writes exactly the
// concatenation of appendEvent's lines for it.
func TestJSONLSinkStreamMatchesAppendEvent(t *testing.T) {
	dec := func(tm sim.Time, rb, best, sel int, bestM, selM float64) Event {
		return Event{T: tm, Type: EvDecision, RB: rb, Best: best, Sel: sel, BestM: bestM, SelM: selM, Level: 1, Cands: 2}
	}
	var run []Event
	// Decision runs that differ only in rb, starting and ending at rb 0
	// (no rb key), and crossing a digit boundary.
	for _, rb := range []int{0, 1, 2, 9, 10, 11, 0, 99, 100, 0} {
		run = append(run, dec(7, rb, 2, 3, 1.0/3.0, 0.3141592653589793))
	}
	// The memo outlives other events in between.
	run = append(run, Event{T: 7, Type: EvTTI, UsedRBs: 25}, dec(7, 5, 2, 3, 1.0/3.0, 0.3141592653589793))
	// Runs that end in a change of sel, t, best, level and cands, flow.
	run = append(run, dec(7, 12, 2, 2, 1.0/3.0, 1.0/3.0), dec(7, 13, 2, 2, 1.0/3.0, 1.0/3.0))
	run = append(run, dec(8, 13, 2, 2, 1.0/3.0, 1.0/3.0), dec(8, 14, 4, 2, 1.0/3.0, 1.0/3.0))
	lvl := dec(8, 14, 4, 2, 1.0/3.0, 1.0/3.0)
	lvl.Level, lvl.Cands = 0, 0
	run = append(run, lvl)
	flow := lvl
	flow.Flow = "10.0.0.1:443>10.1.0.7:50123/6"
	run = append(run, flow, flow)

	cases := map[string][]Event{
		"decision runs": run,
		// The zero event first: the memos start empty, not keyed on it.
		"zero event first": {{}, {}, {Type: EvDecision}, {Type: EvDecision}, {RB: 1}, {}},
		// The (t, type) prefix memo: one t, several types, back and forth.
		"same t, other type": {
			{T: 5, Type: EvTTI, UsedRBs: 3}, {T: 5, Type: EvHARQ, UE: 1, OK: true}, dec(5, 1, 0, 0, 2, 2),
			{T: 5, Type: EvTTI, UsedRBs: 4}, {T: 6, Type: EvTTI, UsedRBs: 4}, {T: 5, Type: EvTTI, UsedRBs: 4},
			{T: 5, Type: ""}, {T: 0, Type: ""}, {T: 0, Type: EvTTI},
		},
		// The float memo: one number in different fields and records,
		// with other numbers in between.
		"equal floats apart": {
			{T: 1, Type: EvSESample, SE: 0.9008568660968663, Fairness: 0.5},
			dec(2, 3, 1, 1, 1.5, 1.5),
			dec(2, 4, 1, 2, 0.9008568660968663, 0.5),
			{T: 3, Type: EvSESample, SE: 0.5, Fairness: 0.9008568660968663, ActiveSE: 1.5},
			{T: 4, Type: EvMeta, BandwidthHz: 0.9008568660968663},
		},
		"e form and -0": {
			dec(1, 1, 1, 1, 1e-7, 1e-7), dec(1, 2, 1, 1, 1e-7, 1e-7),
			dec(1, 3, 1, 2, 1e21, math.Copysign(0, -1)), dec(1, 4, 1, 2, 1e21, 0),
			dec(1, 5, 1, 2, -1.5e-10, 1e-100), {T: 2, Type: EvSESample, SE: 1e-100, Fairness: -1e21, ActiveSE: math.Copysign(0, -1)},
			dec(1, 6, 1, 2, 2.2250738585072014e-308, -0.0000012345678901234567),
		},
		"NaN mid-stream": {
			dec(1, 1, 1, 1, 2, 2), dec(1, 2, 1, 1, 2, 2),
			dec(1, 3, 1, 1, math.NaN(), 2),
			dec(1, 4, 1, 1, 2, 2), {T: 2, Type: EvTTI, UsedRBs: 25},
		},
		"Inf after a hit": {
			{T: 1, Type: EvSESample, SE: 0.5}, dec(1, 1, 1, 1, 2, 2), dec(1, 2, 1, 1, 2, 2),
			{T: 1, Type: EvSESample, SE: 0.5, Fairness: math.Inf(-1)}, dec(1, 3, 1, 1, 2, 2),
		},
	}
	// More distinct numbers than the float memo has slots, then the same
	// numbers again in reverse: every slot is evicted and refilled.
	var evict []Event
	for i := 0; i < 3*len(floatMemo{}); i++ {
		evict = append(evict, Event{T: 9, Type: EvSESample, SE: 1 + float64(i)/7})
	}
	for i := len(evict) - 1; i >= 0; i-- {
		evict = append(evict, evict[i])
	}
	cases["float memo eviction"] = evict
	for name, evs := range cases {
		evs := evs
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) { checkStream(t, evs) })
	}
	// Random streams from the fuzz generator, drained where it says.
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 20; n++ {
		data := make([]byte, 2000)
		r.Read(data)
		evs, drains := streamFrom(data)
		t.Run(fmt.Sprint("random_", n), func(t *testing.T) { checkStream(t, evs, drains...) })
	}
}

// FuzzJSONLSinkStream lets the fuzzer write the event stream and choose
// where to drain the sink (see streamFrom), and holds the sink to
// appendEvent's lines.
func FuzzJSONLSinkStream(f *testing.F) {
	typ := reflect.TypeOf(Event{})
	emit := []byte{byte(typ.NumField()), 0}
	set := func(field string, x byte) []byte {
		sf, _ := typ.FieldByName(field)
		return []byte{byte(sf.Index[0]), x}
	}
	var run, types []byte
	for _, rb := range []byte{0, 1, 2, 0, 3} { // a decision run through rb 0
		run = append(append(run, set("RB", rb)...), emit...)
	}
	for _, x := range []byte{1, 2, 3} { // one t, three types
		types = append(append(types, set("Type", x)...), emit...)
	}
	drained := append(append([]byte{}, run...), byte(typ.NumField()), 7)
	f.Add(run)
	f.Add(types)
	f.Add(drained)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, drains := streamFrom(data)
		checkStream(t, evs, drains...)
	})
}

// hotEvents is one representative event of each type the traced hot
// path emits, as the cell's emit sites populate them.
var hotEvents = []Event{
	{T: 1234 * sim.Millisecond, Type: EvDecision, RB: 7, Best: 2, Sel: 3, BestM: 1.0 / 3.0, SelM: 0.3141592653589793, Level: 1, Cands: 2},
	{T: 1234 * sim.Millisecond, Type: EvHARQ, UE: 3, OK: true, Attempts: 1, Bits: 10240},
	{T: 1234 * sim.Millisecond, Type: EvRLCTx, UE: 3, SN: 4711, Bytes: 1280, Segs: 2},
	{T: 1234 * sim.Millisecond, Type: EvTTI, ServedBits: 18336, UsedRBs: 25, AllocRBs: 25},
	{T: 1234 * sim.Millisecond, Type: EvPDCPSN, UE: 3, Flow: "10.0.0.1:443>10.1.0.3:10001/6", SN: 4711},
	{T: 1234 * sim.Millisecond, Type: EvFlowStart, UE: 3, Flow: "10.0.0.1:443>10.1.0.3:10001/6", Size: 36761},
}

// TestEmitAllocFree pins the traced path's allocation count: after the
// first events have sized the sink's buffers, Tracer.Emit through a
// JSONLSink allocates nothing, whatever the event type, whether the
// sink's memos hit (one event again and again) or miss (a new t and new
// numbers on every line); nor does Emit on a nil tracer or one without
// a sink, the untraced run's path. Each measurement emits more than two
// chunks, so it takes in Emit's handoffs to the encoder and the
// encoder's own work (AllocsPerRun counts every goroutine's mallocs).
// The probe registry is keyed by //outran:allocfree annotation
// (probetest.Run enforces the match).
func TestEmitAllocFree(t *testing.T) {
	const runs = 3 * chunkEvents // per event type; the miss pass emits len(hotEvents) per run
	emit := func(t *testing.T, emit func(Event), drain func(), close func() error) {
		for _, ev := range hotEvents {
			emit(ev)
		}
		drain() // the encoder has sized its buffers
		for _, ev := range hotEvents {
			if n := testing.AllocsPerRun(runs, func() { emit(ev) }); n != 0 {
				t.Errorf("%s: Emit allocates %v times per event, want 0", ev.Type, n)
			}
		}
		step := 0
		if n := testing.AllocsPerRun(runs, func() {
			step++
			for _, ev := range hotEvents {
				ev.T += sim.Time(step)
				ev.BestM += float64(step)
				emit(ev)
			}
		}); n != 0 {
			t.Errorf("memo misses: Emit allocates %v times per %d events, want 0", n, len(hotEvents))
		}
		if err := close(); err != nil {
			t.Fatal(err)
		}
	}
	probetest.Run(t, ".", map[string]func(t *testing.T){
		"(*Tracer).Emit": func(t *testing.T) {
			sink := NewJSONLSink(io.Discard)
			tr := NewTracer(sink)
			emit(t, tr.Emit, func() { sink.BytesWritten() }, tr.Close)
			for _, tr := range []*Tracer{nil, NewTracer(nil)} {
				emit(t, tr.Emit, func() {}, tr.Close)
			}
		},
		"(*JSONLSink).Emit": func(t *testing.T) {
			sink := NewJSONLSink(io.Discard)
			var scratch Event // as Tracer does: the sink's argument stays off the heap
			emit(t, func(ev Event) { scratch = ev; sink.Emit(&scratch) }, func() { sink.BytesWritten() }, sink.Close)
		},
	})
}

// TestTracerScratchNotAliased guards the bug the Sink contract invites:
// the tracer hands every sink the same *Event, so a sink that kept the
// pointer would end up holding N copies of the last event. RingSink,
// fed through Tracer.Emit, must hold N distinct ones, wrapped or not.
func TestTracerScratchNotAliased(t *testing.T) {
	for _, capacity := range []int{0, 8} {
		ring := NewRingSink(capacity)
		tr := NewTracer(ring)
		const n = 20
		for i := 0; i < n; i++ {
			tr.Emit(Event{T: sim.Time(i), Type: EvRLCTx, SN: int64(100 + i)})
		}
		evs := ring.Events()
		kept := n
		if capacity > 0 {
			kept = capacity
		}
		if len(evs) != kept {
			t.Fatalf("cap %d: ring holds %d events, want %d", capacity, len(evs), kept)
		}
		for j, ev := range evs {
			i := n - kept + j
			if ev.T != sim.Time(i) || ev.SN != int64(100+i) {
				t.Fatalf("cap %d: event %d is {t=%v sn=%d}, want {t=%d sn=%d}: the sink aliases the tracer's scratch event",
					capacity, j, ev.T, ev.SN, i, 100+i)
			}
		}
	}
}

// BenchmarkJSONLSinkEmit prices one traced event, tracer front end and
// encoder included: ns/op is ns/event, and B/event is what reaches the
// writer. The timed region ends with BytesWritten, which waits for the
// encoder goroutine to write every event, so ns/op is the slower of
// the two sides and not the enqueue alone. It re-emits one event, so
// past the first it times the sink's memo hits; BenchmarkTraceReplay
// in internal/ran prices a real run's mix.
func BenchmarkJSONLSinkEmit(b *testing.B) {
	for _, ev := range hotEvents {
		switch ev.Type {
		case EvDecision, EvHARQ, EvFlowStart:
		default:
			continue
		}
		ev := ev
		b.Run(ev.Type, func(b *testing.B) {
			sink := NewJSONLSink(io.Discard)
			tr := NewTracer(sink)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Emit(ev)
			}
			written := sink.BytesWritten()
			b.StopTimer()
			b.ReportMetric(float64(written)/float64(b.N), "B/event")
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
