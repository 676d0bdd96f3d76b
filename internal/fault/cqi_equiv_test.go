package fault

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"outran/internal/ran"
	"outran/internal/sim"
	"outran/internal/workload"
)

// TestParentEquivalentCQIFaults pins a run under scripted CQI blackouts
// and fades to goldens recorded on the commit before CQI reports became
// demand-driven: the injector's drop count, the exact sequence of
// DropCQIReport and SINROffsetDB calls — (ue, now) and what the injector
// answered, which depends on its state at that instant — and the FCT
// trace. The cell may defer evaluating the channel; it may not defer,
// reorder or skip a hook call. (The raw-hook twin of this gate is
// ran.TestParentEquivalentFaultedTrace; ran's tests cannot import this
// package.) The call count and both hashes were re-recorded when RLC AM
// got its standard status and poll triggers: the calls follow the
// simulation, and the CQI reports dropped stayed 218.
func TestParentEquivalentCQIFaults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens recorded on amd64; other targets may fuse multiply-adds in math-heavy code")
	}
	const ms = sim.Millisecond
	plan := Plan{
		// UE 0 is blacked out from the start, across idle and busy spells.
		{Kind: CQIBlackout, UE: 0, Start: 0, Duration: 700 * ms},
		{Kind: CQIBlackout, UE: 1, Start: 100 * ms, Duration: 300 * ms},
		// Fades that begin and end inside, across and outside blackouts,
		// off the 5 ms report grid.
		{Kind: DeepFade, UE: 3, Start: 181 * ms, Duration: 62 * ms, Magnitude: 15},
		{Kind: CQIBlackout, UE: 3, Start: 203 * ms, Duration: 94 * ms},
		{Kind: DeepFade, UE: 1, Start: 252 * ms, Duration: 199 * ms, Magnitude: 10},
		{Kind: Outage, UE: 4, Start: 500 * ms, Duration: 33 * ms, Magnitude: 40},
		{Kind: DeepFade, UE: 0, Start: 598 * ms, Duration: 4 * ms, Magnitude: 12},
	}
	type outcome struct {
		cqiDropped   uint64
		calls        int
		callHash     uint64
		flows        int
		fctHash      uint64
		harqFailures uint64
	}
	golden := outcome{218, 11989, 0xecf7e08bb04f52b7, 22, 0x1eff70de6af48129, 0}

	var inj *Injector
	calls, callHash := 0, fnv.New64a()
	cell, err := ran.Harness{
		Config: smallCell(ran.SchedOutRAN, ran.AM).WithSeed(42).WithWorkload(workload.PoissonSpec("lte", 0.6)),
		Window: 800 * ms,
		Drain:  4 * sim.Second,
		Setup: func(c *ran.Cell) error {
			inj = NewInjector(c, 7)
			h := inj.hooks()
			inj.Schedule(plan)
			drop, off := h.DropCQIReport, h.SINROffsetDB
			h.DropCQIReport = func(ue int, now sim.Time) bool {
				d := drop(ue, now)
				calls++
				fmt.Fprintf(callHash, "d %d %d %t\n", ue, now, d)
				return d
			}
			h.SINROffsetDB = func(ue int, now sim.Time) float64 {
				o := off(ue, now)
				calls++
				fmt.Fprintf(callHash, "o %d %d %x\n", ue, now, math.Float64bits(o))
				return o
			}
			c.SetFaultHooks(h)
			return nil
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	fct := fnv.New64a()
	samples := cell.FCT.Samples()
	for _, s := range samples {
		fmt.Fprintf(fct, "%d %d %d %t\n", s.Size, s.FCT, s.UE, s.Incast)
	}
	got := outcome{inj.Stats().CQIDropped, calls, callHash.Sum64(), len(samples), fct.Sum64(), cell.CollectStats().HARQFailures}
	if got.cqiDropped == 0 || got.flows == 0 {
		t.Errorf("nothing dropped or nothing completed: %+v", got)
	}
	if got != golden {
		t.Errorf("run differs from the parent commit's:\n got  %+v\n want %+v", got, golden)
	}
}
