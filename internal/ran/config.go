// Package ran assembles the full downlink system: UEs with fading
// channels, the xNodeB user plane (PDCP header inspection + ciphering,
// RLC UM/AM buffers, MAC scheduling with HARQ), the wired core-network
// path, and TCP-Cubic end hosts. It is the substrate on which every
// experiment of the paper runs.
package ran

import (
	"fmt"

	"outran/internal/channel"
	"outran/internal/cn"
	"outran/internal/core"
	"outran/internal/mac"
	"outran/internal/metrics"
	"outran/internal/phy"
	"outran/internal/sim"
	"outran/internal/transport"
	"outran/internal/workload"
)

// SchedulerKind names a MAC scheduling policy.
type SchedulerKind string

// Available schedulers.
const (
	SchedPF         SchedulerKind = "PF"
	SchedMT         SchedulerKind = "MT"
	SchedRR         SchedulerKind = "RR"
	SchedSRJF       SchedulerKind = "SRJF"
	SchedPSS        SchedulerKind = "PSS"
	SchedCQA        SchedulerKind = "CQA"
	SchedOutRAN     SchedulerKind = "OutRAN"
	SchedStrictMLFQ SchedulerKind = "StrictMLFQ"
)

// RLCMode selects the RLC data transfer mode.
type RLCMode int

// RLC modes.
const (
	UM RLCMode = iota
	AM
)

func (m RLCMode) String() string {
	if m == AM {
		return "AM"
	}
	return "UM"
}

// Config describes one cell simulation.
type Config struct {
	Grid     phy.Grid
	Scenario channel.Scenario
	NumUEs   int

	Scheduler SchedulerKind
	// InnerScheduler is the legacy scheduler OutRAN wraps (PF or MT).
	InnerScheduler SchedulerKind
	// OutRAN holds the OutRAN knobs (used by SchedOutRAN/StrictMLFQ).
	OutRAN core.Config

	// FairnessWindow is the PF T_f (EWMA horizon). Default 1 s.
	FairnessWindow sim.Time

	RLC        RLCMode
	BufferSDUs int // per-UE RLC buffer capacity (default 128)

	Path cn.PathConfig

	// CQIPeriod is the UE CQI reporting period (default 5 ms).
	CQIPeriod sim.Time
	// PDCPSNBits is the PDCP sequence number width (default 12).
	PDCPSNBits int
	// DisableHARQ turns off the air-interface error model (clean PHY).
	DisableHARQ bool

	Transport transport.Config

	// QoSShortFlows grants flows <= 10 KB a dedicated low-latency QoS
	// profile (50 ms budget) — for the PSS/CQA baselines only.
	QoSShortFlows bool

	// KPIEvery, when > 0, enables live KPI telemetry: the cell keeps
	// windowed FCT histograms and counters that Cell.SampleKPI folds
	// into one obs.KPIRecord per interval. Sampling itself is driven
	// externally (the deploy runtime's barriers) so the instants are
	// identical across worker counts.
	KPIEvery sim.Time

	// StreamFCT selects the bounded-memory streaming FCT recorder:
	// completions are counted into fixed-layout histograms instead of
	// retained per-flow (quantiles within ~4.4% of exact).
	StreamFCT bool

	// Workload declares the traffic offered against the cell: composed
	// traffic classes under a temporal envelope, a trace replay, or
	// scripted Extra flows. The harness instantiates it against the
	// cell's effective capacity at build time. Plain data, so it
	// fingerprints with the rest of the configuration.
	Workload workload.Spec

	Seed uint64
}

// DefaultLTEConfig is the paper's main LTE simulation setup (§6.2):
// 20 MHz / 100 RB eNodeB, pedestrian channel, PF baseline, UM RLC,
// 10 ms wired delay.
func DefaultLTEConfig() Config {
	return Config{
		Grid:           phy.LTE20MHz(),
		Scenario:       channel.Pedestrian(),
		NumUEs:         20,
		Scheduler:      SchedPF,
		InnerScheduler: SchedPF,
		OutRAN:         core.DefaultConfig(),
		FairnessWindow: sim.Second,
		RLC:            UM,
		BufferSDUs:     128,
		Path:           cn.DefaultPath(),
		CQIPeriod:      5 * sim.Millisecond,
		PDCPSNBits:     12,
		Seed:           1,
	}
}

// Default5GConfig is the paper's 5G setup: 100 MHz gNodeB at the given
// numerology, urban 28 GHz channel, 40 UEs.
func Default5GConfig(mu phy.Numerology) Config {
	c := DefaultLTEConfig()
	c.Grid = phy.NR100MHz(mu)
	c.Scenario = channel.Urban28GHz()
	c.NumUEs = 40
	return c
}

// WithDefaults returns a copy of c with every unset field replaced by
// its default. NewCell applies it automatically; callers that validate
// or serialise a configuration before building a cell should apply it
// themselves so they see the effective values.
func (c Config) WithDefaults() Config {
	if c.NumUEs <= 0 {
		c.NumUEs = 1
	}
	if c.FairnessWindow <= 0 {
		c.FairnessWindow = sim.Second
	}
	if c.BufferSDUs <= 0 {
		c.BufferSDUs = 128
	}
	if c.CQIPeriod <= 0 {
		c.CQIPeriod = 5 * sim.Millisecond
	}
	if c.PDCPSNBits == 0 {
		c.PDCPSNBits = 12
	}
	if c.InnerScheduler == "" {
		c.InnerScheduler = SchedPF
	}
	if c.Path.WiredDelay == 0 && c.Path.UplinkDelay == 0 {
		c.Path = cn.DefaultPath()
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedPF
	}
	return c
}

// knownSchedulers is the set Validate checks membership against.
var knownSchedulers = map[SchedulerKind]bool{
	SchedPF: true, SchedMT: true, SchedRR: true, SchedSRJF: true,
	SchedPSS: true, SchedCQA: true, SchedOutRAN: true, SchedStrictMLFQ: true,
}

// Validate checks the configuration and returns an error naming the
// offending field. It expects a defaulted configuration (WithDefaults);
// NewCell applies both and returns Validate's error wrapped.
func (c *Config) Validate() error {
	if c.NumUEs <= 0 || c.NumUEs > metrics.UELimit {
		return fmt.Errorf("ran: Config.NumUEs = %d, want in [1, %d]", c.NumUEs, metrics.UELimit)
	}
	if err := c.Grid.Validate(); err != nil {
		return fmt.Errorf("ran: Config.Grid: %w", err)
	}
	if !knownSchedulers[c.Scheduler] {
		return fmt.Errorf("ran: Config.Scheduler: unknown scheduler %q", c.Scheduler)
	}
	if c.Scheduler == SchedOutRAN && c.InnerScheduler != SchedPF && c.InnerScheduler != SchedMT {
		return fmt.Errorf("ran: Config.InnerScheduler: OutRAN cannot wrap %q", c.InnerScheduler)
	}
	if c.RLC != UM && c.RLC != AM {
		return fmt.Errorf("ran: Config.RLC: unknown RLC mode %d", c.RLC)
	}
	if c.FairnessWindow <= 0 {
		return fmt.Errorf("ran: Config.FairnessWindow = %v, want > 0", c.FairnessWindow)
	}
	if c.BufferSDUs <= 0 {
		return fmt.Errorf("ran: Config.BufferSDUs = %d, want > 0", c.BufferSDUs)
	}
	if c.CQIPeriod <= 0 {
		return fmt.Errorf("ran: Config.CQIPeriod = %v, want > 0", c.CQIPeriod)
	}
	if c.PDCPSNBits < 5 || c.PDCPSNBits > 18 {
		return fmt.Errorf("ran: Config.PDCPSNBits = %d, want 5..18", c.PDCPSNBits)
	}
	if c.KPIEvery < 0 {
		return fmt.Errorf("ran: Config.KPIEvery = %v, want >= 0", c.KPIEvery)
	}
	if c.usesMLFQ() {
		if err := c.OutRAN.Validate(); err != nil {
			return fmt.Errorf("ran: Config.OutRAN: %w", err)
		}
	}
	if err := c.Workload.Validate(); err != nil {
		return fmt.Errorf("ran: Config.Workload: %w", err)
	}
	return nil
}

// WithTopology returns a copy with the UE count and, when rbs > 0, the
// resource-grid width set — the two knobs every sweep varies.
func (c Config) WithTopology(ues, rbs int) Config {
	c.NumUEs = ues
	if rbs > 0 {
		c.Grid.NumRB = rbs
	}
	return c
}

// ForScheduler returns a copy configured for the given scheduler,
// applying the dedicated short-flow QoS profile the PSS/CQA baselines
// assume (and clearing it for everything else).
func (c Config) ForScheduler(k SchedulerKind) Config {
	c.Scheduler = k
	c.QoSShortFlows = k == SchedPSS || k == SchedCQA
	return c
}

// WithSeed returns a copy with the simulation seed set.
func (c Config) WithSeed(seed uint64) Config {
	c.Seed = seed
	return c
}

// WithWorkload returns a copy with the workload spec set.
func (c Config) WithWorkload(s workload.Spec) Config {
	c.Workload = s
	return c
}

// usesMLFQ reports whether the configuration needs per-UE MLFQ queues
// and PDCP flow classification.
func (c *Config) usesMLFQ() bool {
	return c.Scheduler == SchedOutRAN || c.Scheduler == SchedStrictMLFQ
}

// resetsMLFQ reports whether the cell runs the §6.3 priority-reset
// clock: an MLFQ scheduler with a positive reset period.
func (c *Config) resetsMLFQ() bool {
	return c.usesMLFQ() && c.OutRAN.ResetPeriod > 0
}

// buildScheduler constructs the MAC scheduler.
func (c *Config) buildScheduler() (mac.Scheduler, error) {
	switch c.Scheduler {
	case SchedPF:
		return mac.NewPF(), nil
	case SchedMT:
		return mac.NewMT(), nil
	case SchedRR:
		return mac.NewRR(), nil
	case SchedSRJF:
		return mac.NewSRJF(), nil
	case SchedPSS:
		return mac.NewPSS(), nil
	case SchedCQA:
		return mac.NewCQA(), nil
	case SchedStrictMLFQ:
		return core.StrictMLFQ(), nil
	case SchedOutRAN:
		var inner mac.MetricFunc
		var name string
		switch c.InnerScheduler {
		case SchedMT:
			inner, name = mac.MTMetric, "MT"
		case SchedPF, "":
			inner, name = mac.PFMetric, "PF"
		default:
			return nil, fmt.Errorf("ran: OutRAN cannot wrap %q", c.InnerScheduler)
		}
		s, err := core.NewInterUser(inner, name, c.OutRAN.Epsilon)
		if err != nil {
			return nil, err
		}
		s.TopK = c.OutRAN.TopK
		return s, nil
	}
	return nil, fmt.Errorf("ran: unknown scheduler %q", c.Scheduler)
}
