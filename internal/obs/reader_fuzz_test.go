package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"outran/internal/sim"
)

// FuzzReadTrace streams arbitrary bytes through ReadTrace into a
// collecting sink. It must never panic, and the events it accepts — all
// of them, or those before the line it rejects — re-encode through a
// JSONLSink into a trace that streams back to equal events without
// error.
func FuzzReadTrace(f *testing.F) {
	var valid []byte
	for i := range hotEvents {
		line, _ := appendEvent(nil, &hotEvents[i])
		valid = append(valid, line...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("null\n{}\n{\"t\":-0,\"type\":\"\"}\n"))
	f.Add([]byte(`{"t":1,"type":"decision","rb":3,"best_m":-0,"sel_m":1e-7,"flow":"a\ud800>"}`))
	f.Add([]byte(`{"t":1e3,"type":7}`))
	f.Add([]byte(`{"T":2,"TYPE":"tti","se":1e400}`))
	f.Add([]byte("\xff{["))
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := NewRingSink(0)
		ReadTrace(bytes.NewReader(data), accepted)
		evs := accepted.Events()
		var buf bytes.Buffer
		s := NewJSONLSink(&buf)
		for i := range evs {
			s.Emit(&evs[i])
		}
		if err := s.Close(); err != nil {
			t.Fatalf("re-encoding %d accepted events: %v", len(evs), err)
		}
		streamed := NewRingSink(0)
		if err := ReadTrace(&buf, streamed); err != nil {
			t.Fatalf("reading the re-encoded trace: %v\n%s", err, buf.Bytes())
		}
		if back := streamed.Events(); !reflect.DeepEqual(back, evs) {
			t.Fatalf("re-encoded trace reads back differently:\n accepted %+v\n back     %+v", evs, back)
		}
	})
}

// FuzzReadKPI feeds ReadKPI arbitrary bytes. It must never panic, an
// error must name a non-blank line of the input, and the records it
// accepts re-encode through a KPISampler into a stream that reads back
// to equal records without error.
func FuzzReadKPI(f *testing.F) {
	var valid bytes.Buffer
	s := NewKPISampler(&valid)
	s.Emit(&KPIRecord{V: KPISchemaVersion, T: 100 * sim.Millisecond, WinFlows: 3, WinP50Ms: 12.5, QueueBytes: []int64{10, 0, 4}})
	s.Emit(&KPIRecord{V: KPISchemaVersion, T: 100 * sim.Millisecond, Cell: RollupCell, Fairness: 1, QueueBytes: []int64{}})
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(`{"v":1,"queue_bytes":null,"se":-0}` + "\n" + `{"v":2}`))
	f.Add([]byte(`{"v":1,"queue_bytes":[1e3]}`))
	f.Add([]byte("null\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadKPI(bytes.NewReader(data))
		if err != nil {
			lines := bytes.Split(data, []byte("\n"))
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "obs: kpi line %d:", &n); serr != nil || n < 1 || n > len(lines) || len(bytes.Trim(lines[n-1], " \t\r\n")) == 0 {
				t.Fatalf("error %q names no non-blank line of the %d-line input", err, len(lines))
			}
		}
		var buf bytes.Buffer
		s := NewKPISampler(&buf)
		for i := range recs {
			s.Emit(&recs[i])
		}
		if err := s.Close(); err != nil {
			t.Fatalf("re-encoding %d accepted records: %v", len(recs), err)
		}
		back, err := ReadKPI(&buf)
		if err != nil {
			t.Fatalf("reading the re-encoded stream: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-encoded stream reads back differently:\n accepted %+v\n back     %+v", recs, back)
		}
	})
}
