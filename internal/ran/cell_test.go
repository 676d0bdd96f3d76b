package ran

import (
	"slices"
	"testing"

	"outran/internal/ip"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

func smallConfig(sched SchedulerKind) Config {
	cfg := DefaultLTEConfig()
	cfg.Grid.NumRB = 25
	cfg.NumUEs = 6
	cfg.Scheduler = sched
	cfg.Seed = 42
	return cfg
}

func TestSingleFlowCompletes(t *testing.T) {
	cfg := smallConfig(SchedPF)
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	var fct sim.Time
	cell.Eng.At(10*sim.Millisecond, func() {
		err := cell.StartFlow(0, 50*1024, FlowOptions{OnComplete: func(d sim.Time) {
			done = true
			fct = d
		}})
		if err != nil {
			t.Fatal(err)
		}
	})
	cell.Run(10 * sim.Second)
	if !done {
		st := cell.CollectStats()
		t.Fatalf("flow did not complete; stats=%+v", st)
	}
	if fct <= 0 || fct > 5*sim.Second {
		t.Fatalf("implausible FCT %v", fct)
	}
	t.Logf("FCT=%v stats=%+v", fct, cell.CollectStats())
}

func TestManyFlowsAllSchedulers(t *testing.T) {
	for _, sched := range []SchedulerKind{SchedPF, SchedMT, SchedRR, SchedSRJF, SchedPSS, SchedCQA, SchedOutRAN, SchedStrictMLFQ} {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			cfg := smallConfig(sched)
			cfg.QoSShortFlows = sched == SchedPSS || sched == SchedCQA
			cell, err := NewCell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(7)
			src, err := workload.Poisson(workload.PoissonConfig{
				Dist:            workload.LTECellular(),
				NumUEs:          cfg.NumUEs,
				Load:            0.4,
				CellCapacityBps: cell.EstimateCapacityBps(),
				Duration:        3 * sim.Second,
				MaxFlows:        60,
			}, r)
			if err != nil {
				t.Fatal(err)
			}
			cell.ScheduleSource(src, 0, 3*sim.Second)
			cell.Run(20 * sim.Second)
			st := cell.CollectStats()
			if st.FlowsStarted == 0 {
				t.Fatal("no flows started")
			}
			frac := float64(st.FlowsCompleted) / float64(st.FlowsStarted)
			if frac < 0.95 {
				t.Fatalf("only %d/%d flows completed; stats=%+v", st.FlowsCompleted, st.FlowsStarted, st)
			}
			t.Logf("%s: %d flows, overall FCT %v, SE %.2f, fairness %.2f",
				sched, st.FlowsCompleted, cell.FCT.Overall().Mean, st.MeanSpectralEff, st.MeanFairnessIndex)
		})
	}
}

// TestAllocTupleSkipsLivePorts: after the port counter wraps, a port
// still carrying a live flow of the same UE is skipped — a second flow on
// the tuple would take over the first one's table entry and packets —
// while another UE may take it; and every flow started across the wrap
// completes.
func TestAllocTupleSkipsLivePorts(t *testing.T) {
	cell, err := NewCell(smallConfig(SchedPF))
	if err != nil {
		t.Fatal(err)
	}
	cell.nextPort = 10000
	if err := cell.StartFlow(0, 2<<20, FlowOptions{}); err != nil {
		t.Fatal(err)
	}
	live := ip.FiveTuple{Src: serverAddr, Dst: cell.ues[0].addr, SrcPort: 443, DstPort: 10001, Proto: ip.ProtoTCP}
	if cell.ues[0].flows[live] == nil {
		t.Fatalf("the long flow is not on %v", live)
	}
	cell.nextPort = 65533
	var ports []uint16
	for range 3 {
		if err := cell.StartFlow(0, 20<<10, FlowOptions{}); err != nil {
			t.Fatal(err)
		}
		ports = append(ports, cell.nextPort)
	}
	if want := []uint16{65534, 65535, 10000}; !slices.Equal(ports, want) {
		t.Fatalf("flows before the live port took %v, want %v", ports, want)
	}
	next, err := cell.allocTuple(0)
	if err != nil {
		t.Fatal(err)
	}
	if next.DstPort != 10002 {
		t.Fatalf("UE 0's next flow takes port %d, want 10002: 10001 is live", next.DstPort)
	}
	cell.nextPort = 10000
	if other, err := cell.allocTuple(1); err != nil || other.DstPort != 10001 {
		t.Fatalf("UE 1 got port %d (err %v), want 10001: the live flow is UE 0's", other.DstPort, err)
	}
	cell.Run(10 * sim.Second)
	if st := cell.CollectStats(); st.FlowsStarted != 4 || st.FlowsCompleted != 4 {
		t.Fatalf("%d of %d flows completed across the wrap", st.FlowsCompleted, st.FlowsStarted)
	}
}
