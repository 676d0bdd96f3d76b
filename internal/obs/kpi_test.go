package obs

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"outran/internal/sim"
)

func kpiHist(vals ...float64) *Histogram {
	h := NewHistogram(KPIBuckets())
	for _, v := range vals {
		h.Observe(v)
	}
	return h
}

// TestKPISamplerRoundTrip: emitted records must decode back equal, and
// Offset must track the exact byte position after each flush.
func TestKPISamplerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewKPISampler(&buf)
	recs := []KPIRecord{
		{V: KPISchemaVersion, T: 100 * sim.Millisecond, Cell: 0, WinFlows: 3, WinP50Ms: 12.5, QueueBytes: []int64{10, 0, 4, 0}},
		{V: KPISchemaVersion, T: 100 * sim.Millisecond, Cell: RollupCell, WinFlows: 3, Fairness: 1},
		{V: KPISchemaVersion, T: 200 * sim.Millisecond, Cell: 0, CumFlows: 7, Sacrifice: 0.01},
	}
	s.Emit(&recs[0])
	if off := s.Offset(); off != int64(buf.Len()) {
		t.Errorf("Offset after first record = %d, want %d", off, buf.Len())
	}
	s.Emit(&recs[1])
	s.Emit(&recs[2])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKPI(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].T != recs[i].T || got[i].Cell != recs[i].Cell ||
			got[i].WinFlows != recs[i].WinFlows || got[i].CumFlows != recs[i].CumFlows ||
			got[i].WinP50Ms != recs[i].WinP50Ms || got[i].Sacrifice != recs[i].Sacrifice {
			t.Errorf("record %d round-trip mismatch:\n  want %+v\n  got  %+v", i, recs[i], got[i])
		}
	}
}

// TestReadKPIErrorLine: a read error names the stream's own line,
// blank lines counted, and the records before it come back with it. A
// line that holds two records is an error too.
func TestReadKPIErrorLine(t *testing.T) {
	var buf bytes.Buffer
	s := NewKPISampler(&buf)
	for i := range 3 {
		s.Emit(&KPIRecord{V: KPISchemaVersion, T: sim.Time(i+1) * 100 * sim.Millisecond, QueueBytes: []int64{int64(i)}})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	stream := slices.Concat(lines[0], lines[1], []byte("\n"), lines[2][:len(lines[2])/2])
	got, err := ReadKPI(bytes.NewReader(stream))
	if err == nil || !strings.HasPrefix(err.Error(), "obs: kpi line 4: ") {
		t.Errorf("err = %v, want one naming line 4", err)
	}
	if len(got) != 2 || got[1].T != 200*sim.Millisecond {
		t.Errorf("got %d records before the error, want the first 2: %+v", len(got), got)
	}
	twice := slices.Concat(lines[0], bytes.TrimSuffix(lines[1], []byte("\n")), lines[2])
	if got, err := ReadKPI(bytes.NewReader(twice)); err == nil || !strings.HasPrefix(err.Error(), "obs: kpi line 2: ") || len(got) != 1 {
		t.Errorf("two records on line 2: %d records, err %v; want 1 and an error naming line 2", len(got), err)
	}
}

// TestReadKPIRejectsSchemaDrift: a record with an unknown version must
// fail loudly rather than being silently misinterpreted.
func TestReadKPIRejectsSchemaDrift(t *testing.T) {
	if _, err := ReadKPI(bytes.NewReader([]byte(`{"v":99,"t":1,"cell":0}` + "\n"))); err == nil {
		t.Error("ReadKPI accepted schema v99")
	}
}

// TestAggregateKPI verifies the roll-up semantics: counts sum, FCT
// quantiles come from merged histograms, SE is bandwidth-weighted and
// fairness is Jain over the union population, not a mean of per-cell
// indices.
func TestAggregateKPI(t *testing.T) {
	// Cell A: two users at 10 each (internally perfectly fair).
	// Cell B: two users at 1000 each (also internally fair).
	// Union fairness: (2020)^2 / (4 * (200 + 2e6)) ≈ 0.51.
	a := KPISample{
		Rec:     KPIRecord{WinFlows: 2, CumFlows: 4, ActiveFlows: 1, WinHARQTx: 10, WinHARQRetx: 1, WinDecisions: 100, WinSacSum: 2, SE: 1.0, Fairness: 1, QueueBytes: []int64{5, 0}},
		Win:     kpiHist(10, 20),
		Cum:     kpiHist(10, 20, 30, 40),
		FairSum: 20, FairSumSq: 200, FairN: 2,
		BandwidthHz: 1e6,
	}
	b := KPISample{
		Rec:     KPIRecord{WinFlows: 1, CumFlows: 2, ActiveFlows: 2, WinHARQTx: 30, WinHARQRetx: 3, WinDecisions: 300, WinSacSum: 1, SE: 3.0, Fairness: 1, QueueBytes: []int64{0, 7, 9}},
		Win:     kpiHist(100),
		Cum:     kpiHist(100, 200),
		FairSum: 2000, FairSumSq: 2e6, FairN: 2,
		BandwidthHz: 3e6,
	}
	out := AggregateKPI(500*sim.Millisecond, []KPISample{a, b})
	if out.Cell != RollupCell || out.T != 500*sim.Millisecond {
		t.Errorf("roll-up identity wrong: cell %d t %v", out.Cell, out.T)
	}
	if out.WinFlows != 3 || out.CumFlows != 6 || out.ActiveFlows != 3 {
		t.Errorf("flow counts not summed: %+v", out)
	}
	if out.WinHARQTx != 40 || out.WinHARQRetx != 4 || out.HARQRetxRate != 0.1 {
		t.Errorf("HARQ roll-up wrong: tx %d retx %d rate %v", out.WinHARQTx, out.WinHARQRetx, out.HARQRetxRate)
	}
	if out.WinDecisions != 400 || out.Sacrifice != 3.0/400 {
		t.Errorf("sacrifice roll-up wrong: dec %d sac %v", out.WinDecisions, out.Sacrifice)
	}
	if len(out.QueueBytes) != 3 || out.QueueBytes[0] != 5 || out.QueueBytes[1] != 7 || out.QueueBytes[2] != 9 {
		t.Errorf("queue depths not summed per level: %v", out.QueueBytes)
	}
	// SE bandwidth-weighted: (1*1e6 + 3*3e6) / 4e6 = 2.5.
	if math.Abs(out.SE-2.5) > 1e-12 {
		t.Errorf("SE = %v, want bandwidth-weighted 2.5", out.SE)
	}
	wantFair := 2020.0 * 2020.0 / (4 * (200 + 2e6))
	if math.Abs(out.Fairness-wantFair) > 1e-12 {
		t.Errorf("fairness = %v, want union Jain %v (mean of per-cell indices would be 1)", out.Fairness, wantFair)
	}
	// Window p50 over the merged {10, 20, 100} population must sit in
	// the middle, far from either cell's own median.
	if out.WinP50Ms < 15 || out.WinP50Ms > 25 {
		t.Errorf("merged win p50 = %v, want ≈20", out.WinP50Ms)
	}
}

// TestAggregateKPIEmpty: no cells sampling still yields a well-formed
// record (fairness degenerates to 1).
func TestAggregateKPIEmpty(t *testing.T) {
	out := AggregateKPI(sim.Second, nil)
	if out.Cell != RollupCell || out.Fairness != 1 || out.WinFlows != 0 {
		t.Errorf("empty roll-up = %+v", out)
	}
}

// TestPhaseProfilerNilInert: every method must be safe and free on a
// nil receiver — the disabled hot path relies on it.
func TestPhaseProfilerNilInert(t *testing.T) {
	var p *PhaseProfiler
	start := p.Begin()
	if !start.IsZero() {
		t.Error("nil Begin read the clock")
	}
	p.End(PhaseMac, start)
	p.OnTTI()
	if p.TTIs() != 0 || p.NsPerTTI() != nil {
		t.Error("nil profiler reported data")
	}
}

// TestPhaseProfilerAttribution: accumulated time lands under the right
// phase and divides by the TTI count.
func TestPhaseProfilerAttribution(t *testing.T) {
	p := NewPhaseProfiler()
	if p.NsPerTTI() != nil {
		t.Error("profiler reported per-TTI data before any TTI")
	}
	for i := 0; i < 4; i++ {
		s := p.Begin()
		time.Sleep(200 * time.Microsecond)
		p.End(PhaseRlc, s)
		p.OnTTI()
	}
	if p.TTIs() != 4 {
		t.Fatalf("TTIs = %d, want 4", p.TTIs())
	}
	got := p.NsPerTTI()
	if len(got) != int(NumPhases) {
		t.Fatalf("NsPerTTI has %d phases, want %d", len(got), NumPhases)
	}
	if got["rlc"] <= 0 {
		t.Errorf("rlc phase ns/TTI = %v, want > 0", got["rlc"])
	}
	for _, name := range []string{"phy", "mac", "pdcp", "obs"} {
		if got[name] != 0 {
			t.Errorf("%s phase ns/TTI = %v, want 0 (never entered)", name, got[name])
		}
	}
}
