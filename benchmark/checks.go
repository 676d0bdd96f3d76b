package main

import (
	"fmt"
	"os"

	"outran/internal/obs"
	"outran/internal/sim"
)

// checkOutcome verifies one finished pass: the structural invariants
// of every cell, the TTI count the horizon implies, clean deciphering,
// and — for the deployment — that the per-cell seeds the benchmark
// derives for its single-cell probes are the ones deploy.Run used.
func checkOutcome(w workloadDef, sub uint64, o outcome) error {
	for i, c := range o.cells {
		if err := c.AuditInvariants(); err != nil {
			return fmt.Errorf("cell %d invariants: %w", i, err)
		}
	}
	if want := uint64(w.cells) * w.ttisPerCell(); o.cellTTIs != want {
		return fmt.Errorf("ran %d cell-TTIs, horizon / TTI says %d", o.cellTTIs, want)
	}
	if n := o.counters.DecipherFailures; n != 0 {
		return fmt.Errorf("%d PDCP decipher failures", n)
	}
	if o.res != nil {
		hs := w.cellConfigs(sub, "")
		for i, c := range o.res.Cells {
			if c.Summary.Seed != hs[i].Config.Seed {
				return fmt.Errorf("cell %d ran with seed %d, benchmark derived %d", i, c.Summary.Seed, hs[i].Config.Seed)
			}
		}
	}
	return nil
}

// kpiInstants returns the deployment's KPI sampling instants: every
// multiple of the period up to and including the horizon.
func (w workloadDef) kpiInstants() []sim.Time {
	var out []sim.Time
	for t := w.kpiEvery; t <= w.total(); t += w.kpiEvery {
		out = append(out, t)
	}
	return out
}

// barriers counts the distinct instants inside the horizon at which
// the deployment pauses every cell: KPI samples and checkpoints.
func (w workloadDef) barriers() int {
	at := map[sim.Time]bool{}
	for t := w.kpiEvery; t < w.total(); t += w.kpiEvery {
		at[t] = true
	}
	for t := w.ckptEvery; t < w.total(); t += w.ckptEvery {
		at[t] = true
	}
	return len(at)
}

// checkKPIStream parses the KPI file with the public reader and checks
// it holds one record per cell plus the roll-up at every instant.
func checkKPIStream(w workloadDef, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	recs, err := obs.ReadKPI(f)
	if err != nil {
		return 0, err
	}
	if want := (w.cells + 1) * len(w.kpiInstants()); len(recs) != want {
		return len(recs), fmt.Errorf("KPI stream holds %d records, want (cells+1) x instants = %d", len(recs), want)
	}
	return len(recs), nil
}
