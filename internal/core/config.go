package core

import (
	"fmt"

	"outran/internal/sim"
)

// Config gathers every OutRAN knob in one place. The zero value is not
// valid; start from DefaultConfig.
type Config struct {
	// Epsilon is the inter-user relaxation threshold (§4.3). The paper
	// ships 0.2; values below 0.4 form the stable plateau of Fig 8.
	Epsilon float64
	// Queues is the MLFQ queue count K (§4.2).
	Queues int
	// Thresholds are the K-1 demotion thresholds in bytes. Leave nil
	// to use the defaults solved for the LTE workload.
	Thresholds []int64
	// ResetPeriod, when > 0, periodically resets every flow's
	// sent-bytes so long-lived latency-sensitive flows regain priority
	// ("priority boost", §6.3). Zero disables resets.
	ResetPeriod sim.Time
	// DelayedSN performs PDCP SN numbering and ciphering at RLC PDU
	// build time instead of PDCP ingress (§4.4). Disabling it with
	// MLFQ enabled reproduces the decipher failures the paper warns
	// about; it exists as a knob only for that ablation.
	DelayedSN bool
	// SegmentPromotion promotes a segmented SDU's remainder to the
	// head of the top priority queue so reassembly windows do not
	// expire (§4.4).
	SegmentPromotion bool
	// TopK, when > 0, replaces the ε relaxation with a top-K-users
	// candidate set — the strictly worse alternative §4.3 argues
	// against; kept for the ablation benches.
	TopK int
}

// DefaultConfig returns the configuration used in the paper's main
// evaluation.
func DefaultConfig() Config {
	return Config{
		Epsilon:          0.2,
		Queues:           DefaultQueues,
		Thresholds:       nil,
		ResetPeriod:      0,
		DelayedSN:        true,
		SegmentPromotion: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !(c.Epsilon >= 0 && c.Epsilon <= 1) { // NaN fails too
		return fmt.Errorf("core: epsilon %g outside [0,1]", c.Epsilon)
	}
	if c.Queues < 2 {
		return fmt.Errorf("core: need at least 2 MLFQ queues, got %d", c.Queues)
	}
	if c.Queues > 1<<16 { // PDCP's flow table keeps a priority in 16 bits
		return fmt.Errorf("core: %d MLFQ queues, at most %d", c.Queues, 1<<16)
	}
	if c.Thresholds != nil && len(c.Thresholds) != c.Queues-1 {
		return fmt.Errorf("core: %d queues need %d thresholds, got %d",
			c.Queues, c.Queues-1, len(c.Thresholds))
	}
	if c.ResetPeriod < 0 {
		return fmt.Errorf("core: negative reset period %v", c.ResetPeriod)
	}
	return nil
}

// Policy builds the MLFQ policy from the config.
func (c Config) Policy() (*MLFQ, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Thresholds != nil {
		return NewMLFQ(c.Thresholds)
	}
	if c.Queues == DefaultQueues {
		return DefaultMLFQ(), nil
	}
	// Spread defaults geometrically from 10 KB when K differs.
	th := make([]int64, c.Queues-1)
	v := int64(10 * 1024)
	for i := range th {
		th[i] = v
		v *= 10
	}
	return NewMLFQ(th)
}
