package metrics

import "outran/internal/sim"

// RunCounters is the end-of-run counter schema of one cell run. It
// used to live as ran.Stats (which is now an alias of this type); the
// move consolidates the two Stats structs behind one JSON-exportable
// schema so traces, summaries and the chaos/bench tooling share field
// names.
type RunCounters struct {
	BufferDrops      int    `json:"buffer_drops"`
	BufferEvictions  int    `json:"buffer_evictions"`
	DecipherFailures uint64 `json:"decipher_failures"`
	// ReassemblyDrops counts SDUs a receiver discarded: under UM partial
	// SDUs overtaken for t-Reassembly or continued past a skipped gap,
	// under AM the SDUs PDUs abandoned at maxRetx carried.
	ReassemblyDrops uint64 `json:"reassembly_drops"`
	// SkippedPDUs counts the PDUs UM receivers gave up on at an SN gap.
	SkippedPDUs       uint64   `json:"skipped_pdus"`
	HARQFailures      uint64   `json:"harq_failures"`
	AMAbandoned       uint64   `json:"am_abandoned"`
	AMRetxBytes       uint64   `json:"am_retx_bytes"`
	MeanSRTT          sim.Time `json:"mean_srtt_ns"`
	FlowsStarted      int      `json:"flows_started"`
	FlowsCompleted    int      `json:"flows_completed"`
	TTIs              uint64   `json:"ttis"`
	MeanSpectralEff   float64  `json:"mean_spectral_eff"`
	MeanFairnessIndex float64  `json:"mean_fairness_index"`

	// Fault-related counters (zero outside chaos runs).
	AMDeliveryFailures uint64 `json:"am_delivery_failures"` // AM PDUs abandoned past maxRetx, via callback
	HARQFeedbackErrors uint64 `json:"harq_feedback_errors"` // injected ACK<->NACK flips
	BackhaulDrops      uint64 `json:"backhaul_drops"`       // packets dropped on the CN->PDCP path
	Reestablishments   uint64 `json:"reestablishments"`     // RRC re-establishments performed
}

// Add sums o's countable fields into c. The means (MeanSRTT,
// MeanSpectralEff, MeanFairnessIndex) are left to the caller, which
// knows how to weigh them.
func (c *RunCounters) Add(o RunCounters) {
	c.BufferDrops += o.BufferDrops
	c.BufferEvictions += o.BufferEvictions
	c.DecipherFailures += o.DecipherFailures
	c.ReassemblyDrops += o.ReassemblyDrops
	c.SkippedPDUs += o.SkippedPDUs
	c.HARQFailures += o.HARQFailures
	c.AMAbandoned += o.AMAbandoned
	c.AMRetxBytes += o.AMRetxBytes
	c.FlowsStarted += o.FlowsStarted
	c.FlowsCompleted += o.FlowsCompleted
	c.TTIs += o.TTIs
	c.AMDeliveryFailures += o.AMDeliveryFailures
	c.HARQFeedbackErrors += o.HARQFeedbackErrors
	c.BackhaulDrops += o.BackhaulDrops
	c.Reestablishments += o.Reestablishments
}

// RunSummary is the complete JSON-exportable summary of one run: the
// configuration line, the counter schema, and the FCT distribution per
// size class. outran-sim -json emits it; the
// decision-audit tooling cross-checks trace-derived aggregates against
// it.
type RunSummary struct {
	Scheduler string `json:"scheduler"`
	RLC       string `json:"rlc"`
	UEs       int    `json:"ues"`
	RBs       int    `json:"rbs"`
	Seed      uint64 `json:"seed"`

	Counters RunCounters `json:"counters"`

	FCTOverall Stats `json:"fct_overall"`
	FCTShort   Stats `json:"fct_short"`
	FCTMedium  Stats `json:"fct_medium"`
	FCTLong    Stats `json:"fct_long"`

	DelayMean  sim.Time `json:"queue_delay_mean_ns"`
	DelayShort sim.Time `json:"queue_delay_short_ns"`

	// Metrics is the flattened obs.Registry export (counters, gauges,
	// histogram buckets) keyed by instrument name.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Phases is the sub-TTI phase profile (mean wall ns/TTI per phase),
	// present only when the run enabled the phase profiler. Wall-clock
	// derived and therefore nondeterministic — it is deliberately kept
	// out of Metrics so byte-compared outputs never include it.
	Phases map[string]float64 `json:"phases,omitempty"`
}
