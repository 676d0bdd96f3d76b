package ran

import (
	"testing"

	"outran/internal/metrics"
	"outran/internal/sim"
)

func TestPersistentConnSequentialFlows(t *testing.T) {
	cfg := smallConfig(SchedPF)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cell.NewConn(0)
	if err != nil {
		t.Fatal(err)
	}
	var fcts []sim.Time
	var start2 func()
	cell.Eng.At(sim.Millisecond, func() {
		err := cell.StartFlow(0, 30*1024, FlowOptions{Conn: conn, OnComplete: func(d sim.Time) {
			fcts = append(fcts, d)
			start2()
		}})
		if err != nil {
			t.Fatal(err)
		}
	})
	start2 = func() {
		err := cell.StartFlow(0, 20*1024, FlowOptions{Conn: conn, OnComplete: func(d sim.Time) {
			fcts = append(fcts, d)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	cell.Run(30 * sim.Second)
	if len(fcts) != 2 {
		t.Fatalf("completed %d/2 flows on the conn", len(fcts))
	}
	for i, d := range fcts {
		if d <= 0 || d > 5*sim.Second {
			t.Fatalf("flow %d FCT %v implausible", i, d)
		}
	}
}

func TestConnReuseAggregatesSentBytes(t *testing.T) {
	// §4.2's limitation: flows multiplexed on one five-tuple share a
	// sent-bytes counter, so a later short flow on a reused connection
	// can be tagged with a demoted priority.
	cfg := smallConfig(SchedOutRAN)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cell.NewConn(0)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	var chain func(n int)
	chain = func(n int) {
		if n == 0 {
			return
		}
		err := cell.StartFlow(0, 60*1024, FlowOptions{Conn: conn, OnComplete: func(sim.Time) {
			done++
			chain(n - 1)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	cell.Eng.At(sim.Millisecond, func() { chain(3) })
	cell.Run(60 * sim.Second)
	if done != 3 {
		t.Fatalf("completed %d/3 chained flows", done)
	}
}

func TestConnWrongUERejected(t *testing.T) {
	cell, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cell.NewConn(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.StartFlow(1, 1000, FlowOptions{Conn: conn}); err == nil {
		t.Fatal("conn bound to UE 0 accepted for UE 1")
	}
}

func TestStartFlowValidation(t *testing.T) {
	cell, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.StartFlow(99, 1000, FlowOptions{}); err == nil {
		t.Fatal("bad UE accepted")
	}
	if err := cell.StartFlow(0, 0, FlowOptions{}); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := cell.StartFlow(0, metrics.SizeLimit, FlowOptions{}); err == nil {
		t.Fatal("a 2^40-byte flow accepted: its FCT sample would not pack")
	}
	if err := cell.StartFlow(0, metrics.SizeLimit-1, FlowOptions{}); err != nil {
		t.Fatalf("a flow of 2^40-1 bytes: %v", err)
	}
}

// TestDelayedSNAblation reproduces the §4.4 failure mode at system
// level: OutRAN with MLFQ reordering but WITHOUT delayed SN numbering
// produces PDCP decipher failures at the UE under a small SN space,
// while the full design produces none.
func TestDelayedSNAblation(t *testing.T) {
	run := func(delayed bool) Stats {
		cfg := smallConfig(SchedOutRAN)
		cfg.PDCPSNBits = 7 // small HFN window to make desync observable
		cfg.OutRAN.DelayedSN = delayed
		cfg.DisableHARQ = true // isolate the reordering effect
		cell, err := NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One long flow and a stream of shorts on the same UE: shorts
		// continually overtake the long flow's queued packets.
		cell.Eng.At(sim.Millisecond, func() {
			if err := cell.StartFlow(0, 2*1024*1024, FlowOptions{}); err != nil {
				t.Error(err)
			}
		})
		for i := 0; i < 60; i++ {
			at := sim.Time(i+2) * 20 * sim.Millisecond
			cell.Eng.At(at, func() {
				if err := cell.StartFlow(0, 6*1024, FlowOptions{}); err != nil {
					t.Error(err)
				}
			})
		}
		cell.Run(20 * sim.Second)
		return cell.CollectStats()
	}
	with := run(true)
	without := run(false)
	if with.DecipherFailures != 0 {
		t.Fatalf("full design had %d decipher failures", with.DecipherFailures)
	}
	if without.DecipherFailures == 0 {
		t.Fatal("ablation (immediate SN + MLFQ) produced no decipher failures; the §4.4 hazard is not being exercised")
	}
}

func TestPriorityResetWiring(t *testing.T) {
	cfg := smallConfig(SchedOutRAN)
	cfg.OutRAN.ResetPeriod = 100 * sim.Millisecond
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cell.Eng.At(sim.Millisecond, func() {
		if err := cell.StartFlow(0, 500*1024, FlowOptions{OnComplete: func(sim.Time) { done = true }}); err != nil {
			t.Fatal(err)
		}
	})
	cell.Run(30 * sim.Second)
	if !done {
		t.Fatal("flow with periodic resets did not complete")
	}
}

func TestAMModeEndToEnd(t *testing.T) {
	cfg := smallConfig(SchedOutRAN)
	cfg.RLC = AM
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 5; i++ {
		i := i
		cell.Eng.At(sim.Time(i+1)*50*sim.Millisecond, func() {
			if err := cell.StartFlow(i%cfg.NumUEs, 100*1024, FlowOptions{OnComplete: func(sim.Time) { done++ }}); err != nil {
				t.Fatal(err)
			}
		})
	}
	cell.Run(30 * sim.Second)
	if done != 5 {
		st := cell.CollectStats()
		t.Fatalf("AM mode completed %d/5 flows; stats %+v", done, st)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() (sim.Time, Stats) {
		cfg := smallConfig(SchedOutRAN)
		cell, err := NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fct sim.Time
		cell.Eng.At(sim.Millisecond, func() {
			cell.StartFlow(0, 200*1024, FlowOptions{OnComplete: func(d sim.Time) { fct = d }})
		})
		cell.Run(20 * sim.Second)
		return fct, cell.CollectStats()
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1 != f2 {
		t.Fatalf("same seed, different FCT: %v vs %v", f1, f2)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
}

func TestQoSShortFlowsMetaOnlyForOracle(t *testing.T) {
	cfg := smallConfig(SchedPSS)
	cfg.QoSShortFlows = true
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	cell.Eng.At(sim.Millisecond, func() {
		cell.StartFlow(0, 5*1024, FlowOptions{OnComplete: func(sim.Time) { done = true }})
	})
	cell.Run(10 * sim.Second)
	if !done {
		t.Fatal("QoS short flow did not complete under PSS")
	}
}

func TestFCTClassesPopulated(t *testing.T) {
	cell, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{5 * 1024, 50 * 1024, 500 * 1024}
	for i, sz := range sizes {
		sz := sz
		cell.Eng.At(sim.Time(i+1)*10*sim.Millisecond, func() {
			cell.StartFlow(i, sz, FlowOptions{})
		})
	}
	cell.Run(30 * sim.Second)
	if cell.FCT.ByClass(metrics.Short).Count != 1 ||
		cell.FCT.ByClass(metrics.Medium).Count != 1 ||
		cell.FCT.ByClass(metrics.Long).Count != 1 {
		t.Fatalf("class counts wrong: %+v", cell.FCT.Overall())
	}
}
