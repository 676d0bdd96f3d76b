package ran

import (
	"fmt"
	"io"

	"outran/internal/obs"
	"outran/internal/sim"
)

// Harness is the single build path shared by the experiment harnesses,
// the fault runner and the deployment runtime (which outran-sim runs
// on): build the cell, attach the workload, run, summarize. It
// encodes the measurement methodology once — a warm-up transient whose
// flows are excluded, a recorded main window, and a pressure tail that
// keeps arrivals flowing so flows recorded near the window's end
// complete under sustained load.
//
// The traffic itself is declared on Config.Workload (a workload.Spec):
// the harness generates its schedule against the cell's effective
// capacity and the arrival span and hands it to the cell, which queues
// one arrival at a time as the run reaches it. Keeping the spec on the
// Config means one value pins the whole run — topology, scheduler, seed
// and offered traffic — and the checkpoint fingerprint covers it; a
// checkpoint records the workload seed and span besides, so a restore
// regenerates the schedule instead of carrying it.
type Harness struct {
	// Config describes the cell and its workload. NewCell defaults and
	// validates it.
	Config Config

	// Warmup/Window/Tail partition the arrival span: flows arriving in
	// [0,Warmup) and [Warmup+Window,span) are scheduled but excluded
	// from the FCT recorder; only the main window is measured. Drain is
	// extra run time after the last arrival so in-flight flows finish.
	Warmup sim.Time
	Window sim.Time
	Tail   sim.Time
	Drain  sim.Time

	// WorkloadSeed pins the arrival process; 0 derives it from the cell
	// seed (Config.Seed + 7919) so one seed still pins the whole run.
	WorkloadSeed uint64

	// WorkloadTrace, when non-nil, receives the exact flow schedule the
	// run offers as a versioned JSONL trace (workload.TraceWriter), in
	// pull order, whole by the time Build returns. Replaying it via
	// Spec.TraceFile reproduces the run byte-identically. Deliberately
	// not part of Config: io.Writer is not plain data and must stay out
	// of the checkpoint fingerprint.
	WorkloadTrace io.Writer

	// Tracer, when non-nil, is installed on the cell before any event
	// runs (see Cell.SetTracer).
	Tracer *obs.Tracer

	// Setup, when non-nil, runs after the cell is built and before any
	// workload is scheduled — the attachment point for fault injection,
	// the invariant checker (Cell.InstallChecker) and custom hooks.
	Setup func(*Cell) error

	// Deprecated: ignored — every cell is checkpointable. Kept only
	// until benchmark/ stops setting it.
	Snapshots bool
}

// Total returns the full run horizon: arrival span plus drain.
func (h Harness) Total() sim.Time { return h.Warmup + h.Window + h.Tail + h.Drain }

// Build constructs the cell and schedules the workload, the tracker
// reset/freeze boundaries, and nothing else — the caller drives the
// engine (the deployment runtime needs to pause at handover barriers).
// Most callers want Run.
func (h Harness) Build() (*Cell, error) {
	cell, err := NewCell(h.Config)
	if err != nil {
		return nil, err
	}
	if h.Tracer != nil {
		cell.SetTracer(h.Tracer)
	}
	if h.Setup != nil {
		if err := h.Setup(cell); err != nil {
			return nil, fmt.Errorf("ran: harness setup: %w", err)
		}
	}
	span := h.Warmup + h.Window + h.Tail
	spec := cell.Config().Workload
	if spec.Enabled() {
		seed := h.WorkloadSeed
		if seed == 0 {
			seed = cell.Config().Seed + 7919
		}
		sch, err := cell.generate(seed, span, 0)
		if err != nil {
			return nil, fmt.Errorf("ran: harness workload: %w", err)
		}
		if h.WorkloadTrace != nil {
			// The cell pulls the schedule as the run reaches it; the trace
			// walks it whole now, so it is complete when Build returns.
			if err := sch.WriteTrace(h.WorkloadTrace); err != nil {
				return nil, fmt.Errorf("ran: harness workload trace: %w", err)
			}
		}
		gen := &scheduleGen{seed: seed, span: span, traceSum: sch.TraceSum}
		cell.scheduleSource(sch.Source(), gen, h.Warmup, h.Warmup+h.Window)
	}
	if h.Warmup > 0 {
		cell.ScheduleTrackerReset(h.Warmup)
	}
	if h.Window > 0 {
		cell.ScheduleTrackerFreeze(h.Warmup + h.Window)
	}
	return cell, nil
}

// Run builds the cell and drives it to the end of the horizon.
func (h Harness) Run() (*Cell, error) {
	cell, err := h.Build()
	if err != nil {
		return nil, err
	}
	cell.Run(h.Total())
	return cell, nil
}
