package ran

import (
	"fmt"
	"slices"
	"testing"

	"outran/internal/metrics"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// amCollapseRun runs benchmark/'s flow-churn shape — 12 UEs x 100 RBs,
// the voice / IoT / web mix at load 0.25, OutRAN, cell seed 1, 0.5 s
// warm-up + 50 s window + 8 s drain — at one traffic seed, with the RLC
// in the given mode and the invariant checker installed: the collapse
// breaks no checked invariant.
func amCollapseRun(t *testing.T, mode RLCMode, trafficSeed uint64) metrics.RunSummary {
	t.Helper()
	cfg := DefaultLTEConfig().WithTopology(12, 100).WithWorkload(workload.Spec{
		Load: 0.25,
		Classes: []workload.ClassSpec{
			{Kind: workload.ClassVoice, Share: 0.4},
			{Kind: workload.ClassIoT, Share: 0.1},
			{Kind: workload.ClassWeb, Dist: "mirage", Share: 0.5},
		},
	}).ForScheduler(SchedOutRAN).WithSeed(1)
	cfg.RLC = mode
	cell, err := Harness{
		Config: cfg, WorkloadSeed: trafficSeed,
		Warmup: 500 * sim.Millisecond, Window: 50 * sim.Second, Drain: 8 * sim.Second,
		Setup: installChecker,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, cell)
	return cell.Summary()
}

// TestRLCAMCollapse guards against ROADMAP item 9's RLC-AM collapse
// under flow churn. At these two traffic seeds AM used to collapse
// where UM did not — a short-flow p99 of seconds instead of ~150 ms and
// an order of magnitude more buffer drops. Measured when written, AM vs
// UM: seed 7031611932980406429 p99 15.1 s vs 206 ms, 34 701 vs 840
// drops (1 089 AM flows unfinished, none under UM); seed
// 7218738570589545383 p99 7.4 s vs 141 ms, 13 636 vs 588 drops.
//
// Two fixes flipped it: the AM receiver gives up only on SNs its
// transmitter abandoned, and t-PollRetransmit polls on new data instead
// of queueing a retransmission in front of it. AM then reads p99 1.23 s
// vs 194 ms and 1 850 vs 674 drops (one flow unfinished) at the first
// seed, 510 ms vs 150 ms and 1 038 vs 682 drops at the second. The
// assertions hold AM within a small factor of UM.
func TestRLCAMCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("four 58.5 s simulated runs")
	}
	for _, seed := range []uint64{7031611932980406429, 7218738570589545383} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			am, um := amCollapseRun(t, AM, seed), amCollapseRun(t, UM, seed)
			amP99, umP99 := am.FCTShort.P99, um.FCTShort.P99
			amDrops, umDrops := am.Counters.BufferDrops, um.Counters.BufferDrops
			t.Logf("seed %d: short-flow p50 %v / %v, p99 %v / %v, buffer drops %d / %d, unfinished %d / %d (AM / UM)",
				seed, am.FCTShort.P50, um.FCTShort.P50, amP99, umP99, amDrops, umDrops,
				am.Counters.FlowsStarted-am.Counters.FlowsCompleted, um.Counters.FlowsStarted-um.Counters.FlowsCompleted)
			if amP99 >= 8*umP99 {
				t.Errorf("seed %d: AM short-flow p99 %v is 8x UM's %v or more: AM collapses", seed, amP99, umP99)
			}
			if amDrops >= 4*umDrops {
				t.Errorf("seed %d: AM buffer drops %d are 4x UM's %d or more: AM collapses", seed, amDrops, umDrops)
			}
		})
	}
}

// entityLosses reads the six loss counters off the UE's PDCP receiver
// and RLC entities by their concrete types: the oracle for addLosses.
func entityLosses(ue *ueCtx) Stats {
	st := Stats{DecipherFailures: ue.pdcpRx.DecipherFailures()}
	switch tx := ue.tx.(type) {
	case *rlc.UMTx:
		st.BufferEvictions = tx.Evictions()
		st.ReassemblyDrops = ue.rx.(*rlc.UMRx).Discarded()
		st.SkippedPDUs = ue.rx.(*rlc.UMRx).Skipped()
	case *rlc.AMTx:
		st.BufferEvictions = tx.Evictions()
		st.ReassemblyDrops = ue.rx.(*rlc.AMRx).Discarded()
		st.AMAbandoned = tx.Abandoned()
		st.AMRetxBytes = tx.RetxBytes()
	}
	return st
}

// TestLossCountersSpanReestablishment: in either RLC mode, each loss
// counter CollectStats takes from the UE's entities is the sum over
// the entities a re-establishment tore down and the live ones. A
// third of the RLC PDUs are lost on top of the BLER model, so UM
// receivers skip gaps and discard half-reassembled SDUs and AM
// transmitters retransmit, before and after every UE re-establishes at
// 1.5 s. Some counters stay zero here, and the test pins which: nothing
// corrupts a PDCP PDU (DecipherFailures), the PF cell's single FIFO
// queue never pushes an SDU out (BufferEvictions), UM never
// retransmits (AMAbandoned, AMRetxBytes), and no AM PDU reaches maxRetx
// (AMAbandoned), so no AM receiver skips an SN (SkippedPDUs) or
// discards an SDU (ReassemblyDrops): it gives up only on what its
// transmitter abandoned.
func TestLossCountersSpanReestablishment(t *testing.T) {
	for _, tc := range []struct {
		mode RLCMode
		zero []string // the counters that stay zero in this scenario
	}{
		{UM, []string{"BufferEvictions", "DecipherFailures", "AMAbandoned", "AMRetxBytes"}},
		{AM, []string{"BufferEvictions", "DecipherFailures", "ReassemblyDrops", "SkippedPDUs", "AMAbandoned"}},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			t.Parallel()
			h := resumeScenario(SchedPF, tc.mode)
			c, err := h.Build()
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(5)
			c.SetFaultHooks(FaultHooks{DropRLCPDU: func(int, sim.Time, *rlc.PDU) bool { return r.Float64() < 0.3 }})
			c.Run(1500 * sim.Millisecond)
			var torn, live Stats
			for i, ue := range c.ues {
				torn.Add(entityLosses(ue))
				if err := c.ReestablishUE(i); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(h.Total())
			for _, ue := range c.ues {
				live.Add(entityLosses(ue))
			}
			got := c.CollectStats()
			for _, f := range []struct {
				name            string
				got, torn, live uint64
			}{
				{"BufferEvictions", uint64(got.BufferEvictions), uint64(torn.BufferEvictions), uint64(live.BufferEvictions)},
				{"DecipherFailures", got.DecipherFailures, torn.DecipherFailures, live.DecipherFailures},
				{"ReassemblyDrops", got.ReassemblyDrops, torn.ReassemblyDrops, live.ReassemblyDrops},
				{"SkippedPDUs", got.SkippedPDUs, torn.SkippedPDUs, live.SkippedPDUs},
				{"AMAbandoned", got.AMAbandoned, torn.AMAbandoned, live.AMAbandoned},
				{"AMRetxBytes", got.AMRetxBytes, torn.AMRetxBytes, live.AMRetxBytes},
			} {
				t.Logf("%s: %d torn down + %d live, CollectStats %d", f.name, f.torn, f.live, f.got)
				if f.got != f.torn+f.live {
					t.Errorf("%s %d, want the torn-down entities' %d + the live ones' %d", f.name, f.got, f.torn, f.live)
				}
				if zero := slices.Contains(tc.zero, f.name); zero != (f.got == 0) {
					t.Errorf("%s %d: the scenario should read it zero: %v", f.name, f.got, zero)
				} else if !zero && (f.torn == 0 || f.live == 0) {
					t.Errorf("%s: %d before the re-establishment and %d after; the test needs both", f.name, f.torn, f.live)
				}
			}
		})
	}
}

// TestReestablishFlushesInFlight re-establishes a loaded AM UE while
// one of its transport blocks and one of its status reports are on
// their way: the block's PDUs may not reach the new receiver, and the
// report may not reach the new transmitter with the old receiver's
// AckSN, which would acknowledge new SNs below it.
func TestReestablishFlushesInFlight(t *testing.T) {
	h := resumeScenario(SchedPF, AM)
	h.Config.DisableHARQ = true // every block decodes, so nothing but the flush stops one
	c, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	ue := -1
	var arrived []*rlc.PDU // the PDUs handed to UE ue's receiver
	c.SetFaultHooks(FaultHooks{DropRLCPDU: func(id int, _ sim.Time, pdu *rlc.PDU) bool {
		if id == ue {
			arrived = append(arrived, pdu)
		}
		return false
	}})
	var old []*rlc.PDU
	var st *rlc.StatusPDU
	for ue < 0 && c.Eng.Now() < 2*sim.Second {
		c.Run(c.Eng.Now() + sim.Millisecond)
		tbs := make([]*harqTB, len(c.ues))
		sts := make([]*rlc.StatusPDU, len(c.ues))
		for _, en := range c.Eng.Entries() {
			switch p := en.Ev.Ptr.(type) {
			case *harqTB:
				tbs[en.Ev.Idx] = p
			case *rlc.StatusPDU:
				if p.AckSN > 0 {
					sts[en.Ev.Idx] = p
				}
			}
		}
		for id := range c.ues {
			if tbs[id] != nil && sts[id] != nil {
				ue, old, st = id, slices.Clone(tbs[id].pdus), sts[id]
				break
			}
		}
	}
	if ue < 0 {
		t.Fatal("no UE had a transport block and a status report on their way at once")
	}
	if err := c.ReestablishUE(ue); err != nil {
		t.Fatal(err)
	}
	c.Run(h.Total())
	if len(arrived) == 0 {
		t.Fatal("no PDU reached the new receiver; the run shows nothing")
	}
	for _, pdu := range arrived {
		if slices.Contains(old, pdu) {
			t.Fatalf("ue %d: PDU SN %d of the torn-down transmitter reached the new receiver", ue, pdu.SN)
		}
	}
	if st.AckSN != 0 || len(st.Nacks) != 0 {
		t.Fatalf("ue %d: the torn-down receiver's status (AckSN %d, %d NACKs) reached the new transmitter", ue, st.AckSN, len(st.Nacks))
	}
}

// TestAMAbandonReachesReceiver: an AM receiver gives up on an SN only
// when its transmitter does. Every copy of one SN of UE 0 is lost, so
// its transmitter abandons it at maxRetx; the cell tells the receiver,
// which skips it, discards the SDUs that PDU carried and delivers the
// ones behind it.
func TestAMAbandonReachesReceiver(t *testing.T) {
	h := resumeScenario(SchedPF, AM)
	c, err := h.Build()
	if err != nil {
		t.Fatal(err)
	}
	const lostSN = 20
	var before uint64 // SDUs UE 0 had received when its transmitter gave up
	c.SetFaultHooks(FaultHooks{
		DropRLCPDU: func(ue int, _ sim.Time, pdu *rlc.PDU) bool { return ue == 0 && pdu.SN == lostSN },
		OnDeliveryFail: func(ue int, sn uint32) {
			if ue == 0 && sn == lostSN {
				before = c.ues[0].rx.(*rlc.AMRx).Delivered()
			}
		},
	})
	c.Run(h.Total())
	st := c.CollectStats()
	after := c.ues[0].rx.(*rlc.AMRx).Delivered()
	if st.AMAbandoned != 1 || st.ReassemblyDrops == 0 || st.ReassemblyDrops > 3 || after <= before {
		t.Fatalf("%d PDUs abandoned, %d SDUs discarded, UE 0 delivered %d SDUs then %d; want the lost SN abandoned, the 1 to 3 SDUs it carried discarded, more delivered",
			st.AMAbandoned, st.ReassemblyDrops, before, after)
	}
}
