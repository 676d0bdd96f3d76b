package ran

import (
	"slices"
	"testing"

	"outran/internal/obs"
	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/workload"
)

// eagerReportOracle is the body reportCQIAt had when every report was
// measured the instant it arrived, frozen here as the reference: every
// UE's channel is evaluated at the report time, subband by subband
// (channel.TestBitIdenticalToPerSubbandFormula pins SINRdB to the batch
// the cell uses), unless the report is dropped. hooks are passed in
// rather than read from the cell so the oracle can run on a twin cell
// that is never stepped.
func eagerReportOracle(c *Cell, hooks FaultHooks, now sim.Time) {
	for _, ue := range c.ues {
		if h := hooks.DropCQIReport; h != nil && h(ue.id, now) {
			continue
		}
		var off float64
		if h := hooks.SINROffsetDB; h != nil {
			off = h(ue.id, now)
		}
		for sb := range ue.macUser.SubbandCQI {
			ue.macUser.SubbandCQI[sb] = phy.CQIFromSINR(ue.ch.SINRdB(now, sb) + off)
		}
	}
}

// runAgainstEagerOracle steps a loaded cell TTI by TTI next to a twin
// of the same seed whose CQI vectors the eager oracle refreshes at every
// report tick. After each TTI every UE without an outstanding report
// must hold the twin's vector and no backlogged UE may have one
// outstanding; at the midpoint and the end Users() must bring all UEs
// level with the twin. hooks must be pure functions of (ue, now): both
// cells call them. It returns how many of the (UE x tick) reports the
// cell measured.
func runAgainstEagerOracle(t *testing.T, cfg Config, hooks FaultHooks, tracer *obs.Tracer, ttis int) (measured, reports int) {
	t.Helper()
	tti := cfg.Grid.TTI()
	cell, err := Harness{
		Config: cfg,
		Window: sim.Time(ttis) * tti,
		Tracer: tracer,
		Setup:  func(c *Cell) error { c.SetFaultHooks(hooks); return nil },
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// NewCell primes the t = 0 report before any hook can be installed.
	eagerReportOracle(twin, FaultHooks{}, 0)

	n := len(cell.ues)
	reports = n
	counted := make([]sim.Time, n) // report instant last seen measured, per UE
	for i := range counted {
		counted[i] = -1
	}
	backloggedTTIs := 0
	for k := 1; k <= ttis; k++ {
		now := sim.Time(k) * tti
		if now%cell.cfg.CQIPeriod == 0 {
			// The report tick fires before the TTI of the same instant.
			eagerReportOracle(twin, hooks, now)
			reports += n
		}
		cell.Run(now)
		if cell.kpi != nil && now%cell.cfg.KPIEvery == 0 {
			cell.SampleKPI(now)
		}
		for i, ue := range cell.ues {
			backlogged := cell.macUsers[i].Buffer.Backlogged()
			if backlogged {
				backloggedTTIs++
			}
			if ue.cqiDue {
				if backlogged {
					t.Fatalf("t=%v: UE %d was backlogged this TTI with its report of %v unmeasured", now, i, ue.cqiAt)
				}
				continue
			}
			if got, want := ue.macUser.SubbandCQI, twin.macUsers[i].SubbandCQI; !slices.Equal(got, want) {
				t.Fatalf("t=%v: UE %d measured its report of %v as %v, eager oracle holds %v", now, i, ue.cqiAt, got, want)
			}
			if counted[i] != ue.cqiAt {
				counted[i] = ue.cqiAt
				measured++
			}
		}
		if k == ttis/2 || k == ttis {
			for i, u := range cell.Users() {
				if cell.ues[i].cqiDue {
					t.Fatalf("t=%v: UE %d still has a report outstanding after Users()", now, i)
				}
				if want := twin.macUsers[i].SubbandCQI; !slices.Equal(u.SubbandCQI, want) {
					t.Fatalf("t=%v: after Users() UE %d holds %v, eager oracle holds %v", now, i, u.SubbandCQI, want)
				}
			}
		}
	}
	if backloggedTTIs == 0 {
		t.Fatal("no UE was ever backlogged; the demand path is not exercised")
	}
	return measured, reports
}

// TestDemandCQIMatchesEagerOracle checks the demand-driven report
// against the frozen eager one on the five benchmark cell shapes, with
// path loss on and mobility off, and under the channel-facing fault
// hooks. On the lte-steady shape fewer than half of the reports may be
// measured, so the laziness cannot silently rot back to eager.
func TestDemandCQIMatchesEagerOracle(t *testing.T) {
	mixed, ok := workload.Scenario("mixed", "lte", 0.7)
	if !ok {
		t.Fatal("no mixed scenario")
	}
	lteSteady := DefaultLTEConfig().WithWorkload(workload.PoissonSpec("lte", 0.6))
	small := DefaultLTEConfig().WithTopology(12, 25).WithWorkload(mixed)
	cityOps := small
	cityOps.KPIEvery = 100 * sim.Millisecond
	cityOps.StreamFCT = true
	pathLoss := lteSteady
	pathLoss.Scenario.PathLossExp = 3.5
	static := lteSteady
	static.Scenario.RadiusM, static.Scenario.SpeedMPS = 0, 0
	pathLossNR := Default5GConfig(phy.Mu1).WithWorkload(workload.PoissonSpec("mirage", 0.8))
	pathLossNR.Scenario.PathLossExp = 3
	hooks := FaultHooks{
		SINROffsetDB: func(ue int, now sim.Time) float64 {
			w := int(now / (100 * sim.Millisecond))
			if w%2 == 1 && w%8 == ue {
				return -12
			}
			return 0
		},
		DropCQIReport: func(ue int, now sim.Time) bool {
			return (int(now/(5*sim.Millisecond))+ue)%7 == 0
		},
	}
	cases := []struct {
		name   string
		cfg    Config
		hooks  FaultHooks
		traced bool
	}{
		{name: "lte-steady", cfg: lteSteady},
		{name: "nr-dense", cfg: Default5GConfig(phy.Mu1).WithWorkload(workload.PoissonSpec("mirage", 0.8))},
		{name: "flow-churn", cfg: DefaultLTEConfig().WithTopology(12, 100).WithWorkload(workload.Spec{
			Load: 0.25,
			Classes: []workload.ClassSpec{
				{Kind: workload.ClassVoice, Share: 0.4},
				{Kind: workload.ClassIoT, Share: 0.1},
				{Kind: workload.ClassWeb, Dist: "mirage", Share: 0.5},
			},
		})},
		{name: "city-ops", cfg: cityOps},
		{name: "cell-traced", cfg: small, traced: true},
		{name: "lte-steady/path-loss", cfg: pathLoss},
		{name: "lte-steady/static", cfg: static},
		{name: "nr-dense/path-loss", cfg: pathLossNR},
		{name: "lte-steady/faulted", cfg: lteSteady, hooks: hooks},
		{name: "cell-traced/faulted", cfg: small, hooks: hooks, traced: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var tracer *obs.Tracer
			if tc.traced {
				tracer = obs.NewTracer(obs.NewRingSink(1 << 10))
			}
			measured, reports := runAgainstEagerOracle(t, tc.cfg.ForScheduler(SchedOutRAN), tc.hooks, tracer, 4000)
			t.Logf("measured %d of %d reports (%.0f%%)", measured, reports, 100*float64(measured)/float64(reports))
			if measured == 0 {
				t.Fatal("no report was measured")
			}
			if tc.name == "lte-steady" && 2*measured >= reports {
				t.Errorf("measured %d of %d reports; a mostly idle cell should measure fewer than half", measured, reports)
			}
		})
	}
}

// TestStaleReportAcrossBlackout: a UE that sits idle through a CQI
// blackout and then gets traffic must be scheduled on its last report
// that got through — that report's instant and the fade injected at
// that instant — not on the channel as of when the MAC first looks.
func TestStaleReportAcrossBlackout(t *testing.T) {
	const (
		ms         = sim.Millisecond
		fadedAt    = 15 * ms // the last report before the blackout; carries the fade
		blackFrom  = 20 * ms
		blackUntil = 60 * ms
		fadeDB     = -12.0
	)
	hooks := FaultHooks{
		SINROffsetDB: func(ue int, now sim.Time) float64 {
			if ue == 0 && now >= 12*ms && now < 18*ms {
				return fadeDB
			}
			return 0
		},
		DropCQIReport: func(ue int, now sim.Time) bool {
			return ue == 0 && now >= blackFrom && now < blackUntil
		},
	}
	cfg := smallConfig(SchedPF)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ue, ch := cell.ues[0], twin.ues[0].ch
	want := func(at sim.Time, off float64) []phy.CQI {
		out := make([]phy.CQI, ch.NumSubbands())
		for sb := range out {
			out[sb] = phy.CQIFromSINR(ch.SINRdB(at, sb) + off)
		}
		return out
	}
	if slices.Equal(want(fadedAt, fadeDB), want(fadedAt, 0)) {
		t.Fatal("the fade moves no CQI; the offset check would be vacuous")
	}

	inBlackout, after := 0, 0
	// check looks at UE 0 right after the TTI at now.
	check := func(now sim.Time) {
		if !cell.macUsers[0].Buffer.Backlogged() {
			return
		}
		if ue.cqiDue {
			t.Fatalf("t=%v: UE 0 backlogged with a report outstanding", now)
		}
		switch {
		case now < blackUntil:
			inBlackout++
			if ue.cqiAt != fadedAt || ue.cqiOff != fadeDB {
				t.Fatalf("t=%v: scheduled on the report of %v with offset %v dB, want the last undropped one (%v, %v dB)",
					now, ue.cqiAt, ue.cqiOff, fadedAt, fadeDB)
			}
			if got, w := ue.macUser.SubbandCQI, want(fadedAt, fadeDB); !slices.Equal(got, w) {
				t.Fatalf("t=%v: SubbandCQI %v, want %v (channel at %v, faded)", now, got, w, fadedAt)
			}
		case after == 0:
			after++
			if ue.cqiAt != blackUntil || ue.cqiOff != 0 {
				t.Fatalf("t=%v: first TTI after the blackout uses the report of %v (offset %v dB), want %v unfaded",
					now, ue.cqiAt, ue.cqiOff, blackUntil)
			}
			if got, w := ue.macUser.SubbandCQI, want(blackUntil, 0); !slices.Equal(got, w) {
				t.Fatalf("t=%v: SubbandCQI %v, want %v (channel at %v)", now, got, w, blackUntil)
			}
		}
	}
	cell.SetFaultHooks(hooks)
	// UE 0 has no traffic until mid-blackout; the wired path adds 10 ms.
	cell.Eng.At(30*ms, func() {
		if err := cell.StartFlow(0, 2*1024*1024, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	tti := cfg.Grid.TTI()
	for now := tti; now <= 80*ms; now += tti {
		cell.Run(now)
		check(now)
	}
	if inBlackout == 0 || after == 0 {
		t.Fatalf("UE 0 backlogged in %d blackout TTIs and %d later ones; want both", inBlackout, after)
	}
}
