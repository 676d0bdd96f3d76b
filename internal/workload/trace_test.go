package workload

import (
	"bytes"
	"strings"
	"testing"

	"outran/internal/rng"
	"outran/internal/sim"
)

func TestTraceRoundTripExact(t *testing.T) {
	src, err := Poisson(PoissonConfig{
		Dist: LTECellular(), NumUEs: 8, Load: 0.5,
		CellCapacityBps: 20e6, Duration: 3 * sim.Second,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	flows := Collect(src)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, flows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flows) {
		t.Fatalf("round trip %d flows, want %d", len(got), len(flows))
	}
	for i := range got {
		// Nanosecond-exact: the JSONL format stores integer ns, so
		// replay reproduces the schedule bit-for-bit.
		if got[i] != flows[i] {
			t.Fatalf("row %d: %+v vs %+v", i, got[i], flows[i])
		}
	}
}

// TestTraceByteIdentityAcrossSeeds: emit -> read -> re-emit yields an
// identical byte stream, for many seeds — the round-trip property the
// CI replay smoke builds on.
func TestTraceByteIdentityAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		src, err := Poisson(PoissonConfig{
			Dist: LTECellular(), NumUEs: 5, Load: 0.4,
			CellCapacityBps: 10e6, Duration: 2 * sim.Second,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		flows := Collect(src)
		var first bytes.Buffer
		if err := WriteTrace(&first, flows); err != nil {
			t.Fatal(err)
		}
		read, err := ReadTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := WriteTrace(&second, read); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: emit->replay->emit not byte-identical", seed)
		}
	}
}

func TestTraceWriterStreams(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	flows := []FlowSpec{
		{Start: sim.Second, UE: 3, Size: 8192, Incast: true},
		{Start: 2 * sim.Second, UE: 1, Size: 100},
	}
	for _, f := range flows {
		tw.Emit(f)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != flows[0] || got[1] != flows[1] {
		t.Fatalf("streamed trace %+v", got)
	}
	if !got[0].Incast {
		t.Fatal("incast flag lost")
	}
}

func TestReadTraceErrors(t *testing.T) {
	hdr := `{"format":"outran-workload-trace","version":1}` + "\n"
	cases := []string{
		"",                                      // empty
		"start_us,ue,size_bytes,incast\n",       // retired CSV format
		`{"format":"other","version":1}` + "\n", // wrong format
		`{"format":"outran-workload-trace","version":99}` + "\n", // future version
		hdr + "not json\n",                                                          // bad row
		hdr + `{"t":-1,"ue":0,"size":10}` + "\n",                                    // negative time
		hdr + `{"t":5,"ue":-2,"size":10}` + "\n",                                    // negative ue
		hdr + `{"t":5,"ue":0,"size":0}` + "\n",                                      // non-positive size
		hdr + `{"t":5,"ue":0,"size":10}` + "\n" + `{"t":4,"ue":0,"size":10}` + "\n", // out of order
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad trace accepted", i)
		}
	}
}
