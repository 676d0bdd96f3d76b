package ran

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"outran/internal/core"
	"outran/internal/mac"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/phy"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/workload"
)

// hashingScheduler wraps the cell's real scheduler and folds every
// per-TTI allocation decision into a running FNV hash, so two runs can
// be compared decision-by-decision, not just on end-of-run aggregates.
type hashingScheduler struct {
	inner mac.Scheduler
	h     uint64
	ttis  int
}

func (s *hashingScheduler) Name() string { return s.inner.Name() }

func (s *hashingScheduler) Allocate(now sim.Time, users []*mac.User, grid phy.Grid) mac.Allocation {
	alloc := s.inner.Allocate(now, users, grid)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(s.h)
	put(uint64(now))
	for _, owner := range alloc.RBOwner {
		put(uint64(int64(owner)))
	}
	s.h = h.Sum64()
	s.ttis++
	return alloc
}

// quickstartTrace runs the quickstart scenario (one LTE cell, 8 UEs ×
// 25 RBs, Poisson LTE-cellular traffic at load 0.7, seed 42) and
// returns the full per-flow FCT trace, the scheduler decision hash, and
// the end-of-run stats. setup, when non-nil, sees the cell before the
// run.
func quickstartTrace(t *testing.T, sched SchedulerKind, setup func(*Cell)) ([]metrics.FCTSample, uint64, Stats) {
	t.Helper()
	cfg := DefaultLTEConfig()
	cfg.NumUEs = 8
	cfg.Grid.NumRB = 25
	cfg.Scheduler = sched
	cfg.Seed = 42
	return hashedTrace(t, cfg, workload.LTECellular(), 0.7, 1500*sim.Millisecond, setup)
}

// hashedTrace runs cfg under Poisson traffic of the given size
// distribution and load for dur plus a drain, with the scheduler wrapped
// in a hashingScheduler.
func hashedTrace(t *testing.T, cfg Config, dist *rng.EmpiricalCDF, load float64, dur sim.Time, setup func(*Cell)) ([]metrics.FCTSample, uint64, Stats) {
	t.Helper()
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(cell)
	}
	hs := &hashingScheduler{inner: cell.sched}
	cell.sched = hs

	src, err := workload.Poisson(workload.PoissonConfig{
		Dist:            dist,
		NumUEs:          cfg.NumUEs,
		Load:            load,
		CellCapacityBps: cell.EffectiveCapacityBps(),
		Duration:        dur,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cell.ScheduleSource(src, 0, dur)
	cell.Run(dur + 6*sim.Second) // drain
	return cell.FCT.Samples(), hs.h, cell.CollectStats()
}

// TestQuickstartDeterminism is the same-seed double-run regression
// gate: the quickstart scenario, run twice, must produce identical
// per-flow FCT traces (same flows, same completion order, same times)
// and bit-identical scheduler decisions on every TTI. Any map-order or
// wall-clock leak into the schedule shows up here.
func TestQuickstartDeterminism(t *testing.T) {
	for _, sched := range []SchedulerKind{SchedPF, SchedOutRAN} {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			fct1, hash1, st1 := quickstartTrace(t, sched, nil)
			fct2, hash2, st2 := quickstartTrace(t, sched, nil)

			if len(fct1) == 0 {
				t.Fatal("no flows completed; the scenario is not exercising the stack")
			}
			if len(fct1) != len(fct2) {
				t.Fatalf("run 1 completed %d flows, run 2 completed %d", len(fct1), len(fct2))
			}
			for i := range fct1 {
				if fct1[i] != fct2[i] {
					t.Fatalf("FCT trace diverges at flow %d: %+v vs %+v", i, fct1[i], fct2[i])
				}
			}
			if hash1 != hash2 {
				t.Fatalf("scheduler decision hashes differ: %#x vs %#x", hash1, hash2)
			}
			if st1 != st2 {
				t.Fatalf("stats differ:\n run 1: %+v\n run 2: %+v", st1, st2)
			}
		})
	}
}

// TestParentEquivalentFaultedTrace pins the quickstart scenario, run
// with HARQ on and the two channel-facing fault hooks installed, to
// goldens recorded on the commit before the channel's batch evaluation
// (SubbandSINRs/MeanSINROver) replaced the per-subband SINRdB calls.
// The same-seed double run above proves only self-consistency; this
// proves the channel rewrite changed no CQI report and no HARQ decode.
// The fade hook returns both zero and non-zero offsets so the report
// path is covered with and without an offset, and the drop hook leaves
// stale CQIs in place. Both rows were re-recorded when the RLC
// receivers came to give up only on 3GPP's triggers (DESIGN.md "When a
// receiver gives up"), which changes what runs produce.
func TestParentEquivalentFaultedTrace(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; other targets may fuse multiply-adds in math-heavy code")
	}
	hooks := FaultHooks{
		// A 12 dB fade that visits one UE per 100 ms window, half the time.
		SINROffsetDB: func(ue int, now sim.Time) float64 {
			w := int(now / (100 * sim.Millisecond))
			if w%2 == 1 && w%8 == ue {
				return -12
			}
			return 0
		},
		// Every seventh report of each UE is lost.
		DropCQIReport: func(ue int, now sim.Time) bool {
			return (int(now/(5*sim.Millisecond))+ue)%7 == 0
		},
	}
	type outcome struct {
		flows          int
		fct, sched     uint64
		harqTx, harqRe uint64
	}
	golden := map[SchedulerKind]outcome{
		SchedPF:     {14, 0x8e259c52913588a, 0x3bc9a18f276c49e3, 1129, 41},
		SchedOutRAN: {14, 0xb10e4a4ffa022e7e, 0x63ad80e81b76ec1c, 1150, 41},
	}
	for _, sched := range []SchedulerKind{SchedPF, SchedOutRAN} {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			var cell *Cell
			fct, schedHash, _ := quickstartTrace(t, sched, func(c *Cell) {
				cell = c
				c.SetFaultHooks(hooks)
			})
			h := fnv.New64a()
			for _, s := range fct {
				fmt.Fprintf(h, "%d %d %d %t\n", s.Size, s.FCT, s.UE, s.Incast)
			}
			got := outcome{len(fct), h.Sum64(), schedHash, cell.ctrHARQTx.Value(), cell.ctrHARQRetx.Value()}
			if got.harqRe == 0 {
				t.Error("no HARQ retransmission; the decode path is not exercised")
			}
			if want := golden[sched]; got != want {
				t.Errorf("trace differs from the parent commit's:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestParentEquivalentNRTrace is the same gate at the paper's 5G point,
// recorded on the commit before the MAC walked subband runs instead of
// RBs and the cell folded its per-UE grant stats in one pass: 273 RBs
// over 9 subbands do not divide evenly, so the runs are 30 or 31 RBs
// long and any off-by-one at a run boundary moves the per-TTI hash. For
// OutRAN the decision audit is pinned too, the sacrifice sum by its bit
// pattern, since it must still be accumulated one RB at a time. The PF
// row was re-recorded when PF stopped granting runs at CQI 0 (DESIGN.md
// §"MAC scheduling by subband run"), and both when the RLC receivers
// came to give up only on 3GPP's triggers.
func TestParentEquivalentNRTrace(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; other targets may fuse multiply-adds in math-heavy code")
	}
	hooks := FaultHooks{
		SINROffsetDB: func(ue int, now sim.Time) float64 {
			w := int(now / (50 * sim.Millisecond))
			if w%2 == 1 && w%40 == ue {
				return -12
			}
			return 0
		},
		DropCQIReport: func(ue int, now sim.Time) bool {
			return (int(now/(5*sim.Millisecond))+ue)%7 == 0
		},
	}
	type outcome struct {
		flows                int
		fct, sched           uint64
		harqTx, harqRe       uint64
		decisions, overrides uint64
		sacBits              uint64
	}
	golden := map[SchedulerKind]outcome{
		SchedPF:     {240, 0x9449fd64274e2fba, 0x10eb4188d651f5c2, 4510, 1257, 0, 0, 0},
		SchedOutRAN: {240, 0xfe604e137093c82c, 0x1e4e8ea016983df1, 4195, 1121, 926819, 62459, 0x40bbbcb4be539926},
	}
	for _, sched := range []SchedulerKind{SchedPF, SchedOutRAN} {
		sched := sched
		t.Run(string(sched), func(t *testing.T) {
			cfg := Default5GConfig(phy.Mu1)
			cfg.Scheduler = sched
			cfg.Seed = 42
			var cell *Cell
			var iu *core.InterUser
			fct, schedHash, _ := hashedTrace(t, cfg, workload.Mirage(), 0.8, 400*sim.Millisecond, func(c *Cell) {
				cell = c
				iu, _ = c.sched.(*core.InterUser)
				c.SetFaultHooks(hooks)
			})
			h := fnv.New64a()
			for _, s := range fct {
				fmt.Fprintf(h, "%d %d %d %t\n", s.Size, s.FCT, s.UE, s.Incast)
			}
			got := outcome{flows: len(fct), fct: h.Sum64(), sched: schedHash,
				harqTx: cell.ctrHARQTx.Value(), harqRe: cell.ctrHARQRetx.Value()}
			if iu != nil {
				var sac float64
				got.decisions, got.overrides, sac = iu.Audit()
				got.sacBits = math.Float64bits(sac)
				if got.overrides == 0 {
					t.Error("no override; the relaxed re-selection is not exercised")
				}
			}
			if got.harqRe == 0 {
				t.Error("no HARQ retransmission; the decode path is not exercised")
			}
			if want := golden[sched]; got != want {
				t.Errorf("trace differs from the parent commit's:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestParentEquivalentJSONLTrace pins the bytes of the JSONL event
// trace — length and SHA-256 — to goldens recorded with the binary of
// the commit before obs.JSONLSink stopped encoding through
// encoding/json: the benchmark's cell-traced shape (12 UEs x 25 RBs,
// the "mixed" scenario at load 0.7) on a short horizon under OutRAN and
// PF, and one RLC-AM run with a fade, lost PDUs and lost CQI reports so
// that every event type the cell emits is on the wire. The
// differential test in internal/obs proves the encoder equals the
// library on arbitrary events; this proves it on the events real runs
// produce, in the order they produce them. The PF row was re-recorded
// when PF stopped granting runs at CQI 0. All three were re-recorded
// when the tracker took over the fairness block: only the fairness of
// the one sample folded before the 100 ms warmup reset moved, from a
// block the cell had counted from t = 0 to the tracker's 50 TTIs. All
// three were re-recorded again when the RLC receivers came to give up
// only on 3GPP's triggers, and the AM row once more when RLC AM got its
// standard status and poll triggers.
func TestParentEquivalentJSONLTrace(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; other targets may fuse multiply-adds in math-heavy code")
	}
	mixed, ok := workload.Scenario("mixed", "lte", 0.7)
	if !ok {
		t.Fatal("no mixed scenario")
	}
	faults := FaultHooks{
		SINROffsetDB: func(ue int, now sim.Time) float64 {
			w := int(now / (100 * sim.Millisecond))
			if w%2 == 1 && w%12 == ue {
				return -12
			}
			return 0
		},
		DropCQIReport: func(ue int, now sim.Time) bool {
			return (int(now/(5*sim.Millisecond))+ue)%7 == 0
		},
		DropRLCPDU: func(ue int, now sim.Time, pdu *rlc.PDU) bool {
			return (int(now/sim.Millisecond)+ue)%23 == 0
		},
	}
	cases := []struct {
		name   string
		sched  SchedulerKind
		am     bool
		bytes  int
		sha256 string
		types  []string // event types the trace must contain
	}{
		{"OutRAN", SchedOutRAN, false, 8460775, "b5c65595d9889702807af0dc90f90dcbee16c87301052e420003b56da5cb829d",
			[]string{obs.EvMeta, obs.EvFlowStart, obs.EvFlowEnd, obs.EvPDCPSN, obs.EvMLFQ, obs.EvRLCTx, obs.EvHARQ,
				obs.EvDeliver, obs.EvTTI, obs.EvDecision, obs.EvSESample, obs.EvTrackerReset, obs.EvTrackerFreeze}},
		{"PF", SchedPF, false, 783465, "b2a808f0fae1f862030e716242117e96a15257af97f2a62f97ecf67b7dcd8bf3",
			[]string{obs.EvMeta, obs.EvFlowStart, obs.EvFlowEnd, obs.EvPDCPSN, obs.EvRLCTx, obs.EvHARQ, obs.EvDeliver, obs.EvTTI}},
		{"OutRAN-AM-faulted", SchedOutRAN, true, 8246237, "4e84839dae24a51d519741f25551737f9594739bcf2053c5894f0a07c2ad6bba",
			[]string{obs.EvMeta, obs.EvMLFQ, obs.EvRLCRetx, obs.EvHARQ, obs.EvDecision, obs.EvSESample,
				obs.EvTrackerReset, obs.EvTrackerFreeze}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultLTEConfig().WithTopology(12, 25).WithWorkload(mixed).ForScheduler(tc.sched).WithSeed(1)
			var sb strings.Builder
			h := Harness{
				Config: cfg, Warmup: 100 * sim.Millisecond, Window: 1500 * sim.Millisecond, Drain: sim.Second,
				WorkloadSeed: 3, Tracer: obs.NewTracer(obs.NewJSONLSink(&sb)),
			}
			if tc.am {
				h.Config.RLC = AM
				h.Setup = func(c *Cell) error { c.SetFaultHooks(faults); return nil }
			}
			cell, err := h.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := cell.Tracer().Close(); err != nil {
				t.Fatal(err)
			}
			trace := sb.String()
			for _, typ := range tc.types {
				if !strings.Contains(trace, `"type":"`+typ+`"`) {
					t.Errorf("trace has no %s line; the golden does not cover it", typ)
				}
			}
			if tc.am && !harqFailure(trace) {
				t.Error("trace has no failed HARQ decode (a harq line with ok omitted)")
			}
			sum := sha256.Sum256([]byte(trace))
			if got := hex.EncodeToString(sum[:]); len(trace) != tc.bytes || got != tc.sha256 {
				t.Errorf("trace differs from the parent binary's:\n got  %d bytes, sha256 %s\n want %d bytes, sha256 %s",
					len(trace), got, tc.bytes, tc.sha256)
			}
		})
	}
}

// harqFailure reports whether the trace holds a harq line whose ok
// field is false, i.e. omitted on the wire.
func harqFailure(trace string) bool {
	for _, line := range strings.Split(trace, "\n") {
		if strings.Contains(line, `"type":"harq"`) && !strings.Contains(line, `"ok":true`) {
			return true
		}
	}
	return false
}

// TestDeterminismAcrossRLCModes repeats the double-run check under AM
// mode, whose status-PDU and retransmission machinery exercises the
// map-backed paths (txed table sweeps, reassembly drains) whose walks
// must not leak Go's randomized map order.
func TestDeterminismAcrossRLCModes(t *testing.T) {
	run := func() ([]metrics.FCTSample, Stats) {
		cfg := smallConfig(SchedPF)
		cfg.RLC = AM
		cfg.Seed = 42
		cell, err := NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.Poisson(workload.PoissonConfig{
			Dist:            workload.LTECellular(),
			NumUEs:          cfg.NumUEs,
			Load:            0.6,
			CellCapacityBps: cell.EffectiveCapacityBps(),
			Duration:        sim.Second,
		}, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		cell.ScheduleSource(src, 0, sim.Second)
		cell.Run(7 * sim.Second)
		return cell.FCT.Samples(), cell.CollectStats()
	}
	fct1, st1 := run()
	fct2, st2 := run()
	if len(fct1) != len(fct2) {
		t.Fatalf("completed-flow counts differ: %d vs %d", len(fct1), len(fct2))
	}
	for i := range fct1 {
		if fct1[i] != fct2[i] {
			t.Fatalf("AM FCT trace diverges at flow %d: %+v vs %+v", i, fct1[i], fct2[i])
		}
	}
	if st1 != st2 {
		t.Fatalf("AM stats differ:\n run 1: %+v\n run 2: %+v", st1, st2)
	}
}
