package metrics

import (
	"math"

	"outran/internal/sim"
)

// JainIndex computes Jain's fairness index (eq. 3 of the paper) over
// per-user long-term average throughputs. It is 1 for a perfectly
// equal allocation and 1/n when one user takes everything. Users with
// zero throughput are included, as in the paper's definition.
func JainIndex(tputs []float64) float64 {
	n := len(tputs)
	if n == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, t := range tputs {
		if t < 0 {
			t = 0
		}
		sum += t
		sumSq += t * t
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// TrackerObserver mirrors a CellTracker's sample folds and window
// boundaries to an external consumer — the tracing layer records them
// as se_sample / tracker_reset / tracker_freeze events so end-of-run
// aggregates can be reproduced from a trace alone. activeSE is < 0
// when the block carried no data on any RB (no active sample folded).
type TrackerObserver interface {
	OnSample(now sim.Time, se, fairness, activeSE float64)
	OnReset()
	OnFreeze()
}

// CellTracker samples spectral efficiency and fairness every
// SamplePeriod TTIs (the paper uses 50) and accumulates the time
// series for the CDF/timeseries figures. A sample covers one block:
// the SamplePeriod TTIs after the tick that anchored the block clock
// (the first tick after construction or Reset) or after the previous
// sample. The fairness index (eq. 3) of a block is taken over the UEs
// that contended in it (were backlogged or served), from the bits each
// was served: a starved backlogged UE drags it down, an idle one does
// not.
type CellTracker struct {
	BandwidthHz  float64
	SamplePeriod int // TTIs per sample

	// Obs, when set, observes every sample fold and window boundary.
	Obs TrackerObserver

	ttiCount      int
	bitsThisBlock int64
	rbsThisBlock  int64 // RB-TTIs actually carrying data this block
	ueBlock       []ueBlock
	blockStart    sim.Time
	totalBits     int64

	// RBBandwidthHz and TTISeconds convert used RB-TTIs to
	// resource-seconds for the active-SE metric; set by the cell.
	RBBandwidthHz float64
	TTISeconds    float64

	seSamples     []float64
	activeSamples []float64
	fairSamples   []float64
	// Per-block raw moments of the user-throughput vector behind each
	// fairness sample (negative tputs clamped to 0, as in JainIndex).
	// A deployment aggregates cells by summing these per block and
	// recomputing Jain over the union — mean-of-per-cell-indices is
	// not the fairness of the combined user population.
	fairSums   []float64
	fairSumSqs []float64
	fairNs     []float64
	seTimes    []sim.Time
	frozen     bool
	started    bool
}

// ueBlock is one UE's share of the open block.
type ueBlock struct {
	bits      int64
	contended bool
}

// Freeze stops sample accumulation; used to measure over the loaded
// window only, excluding the drain tail of a run.
func (c *CellTracker) Freeze() {
	c.frozen = true
	if c.Obs != nil {
		c.Obs.OnFreeze()
	}
}

// Reset discards everything accumulated so far and resumes sampling —
// used to cut the warmup transient out of the measurement window.
func (c *CellTracker) Reset() {
	c.frozen = false
	c.started = false
	c.ttiCount = 0
	c.bitsThisBlock = 0
	c.rbsThisBlock = 0
	c.totalBits = 0
	c.seSamples = nil
	c.activeSamples = nil
	c.fairSamples = nil
	c.fairSums = nil
	c.fairSumSqs = nil
	c.fairNs = nil
	c.seTimes = nil
	if c.Obs != nil {
		c.Obs.OnReset()
	}
}

// NewCellTracker builds a tracker for a cell of the given bandwidth
// and number of UEs.
func NewCellTracker(bandwidthHz float64, ues int) *CellTracker {
	return &CellTracker{BandwidthHz: bandwidthHz, SamplePeriod: 50, ueBlock: make([]ueBlock, ues)}
}

// OnUE adds one UE's share of the current TTI to the open block: the
// bits it was served and whether it contended. The cell calls it for
// every UE, in UE order, before OnTTIUsed.
func (c *CellTracker) OnUE(ue, bits int, contended bool) {
	b := &c.ueBlock[ue]
	b.bits += int64(bits)
	b.contended = b.contended || contended
}

// OnTTI records one TTI's delivered bits; every SamplePeriod TTIs it
// folds a sample.
func (c *CellTracker) OnTTI(now sim.Time, servedBits int) {
	c.OnTTIUsed(now, servedBits, 0)
}

// OnTTIUsed additionally records the number of RBs that carried data
// this TTI, enabling the active-resource spectral efficiency metric
// (bits per used RB-second-Hz) that is insensitive to how much
// backlog a scheduler defers past the measurement window.
func (c *CellTracker) OnTTIUsed(now sim.Time, servedBits, usedRBs int) {
	if c.frozen {
		return
	}
	if !c.started {
		// The first tick anchors the block clock; its bits are counted
		// from the next full block (the exact duration before it is
		// unknowable).
		c.started = true
		c.blockStart = now
		c.totalBits += int64(servedBits)
		clear(c.ueBlock)
		return
	}
	c.bitsThisBlock += int64(servedBits)
	c.rbsThisBlock += int64(usedRBs)
	c.totalBits += int64(servedBits)
	c.ttiCount++
	if c.ttiCount >= c.SamplePeriod {
		dur := (now - c.blockStart).Seconds()
		if dur > 0 {
			se := float64(c.bitsThisBlock) / dur / c.BandwidthHz
			// Jain's index computed from raw moments (identical
			// arithmetic to JainIndex) so the moments can also be
			// retained for cross-cell aggregation.
			var fsum, fsumSq, n float64
			for _, b := range c.ueBlock {
				if b.contended {
					t := float64(b.bits)
					fsum += t
					fsumSq += t * t
					n++
				}
			}
			fair := 1.0
			if fsumSq != 0 {
				fair = fsum * fsum / (n * fsumSq)
			}
			c.seSamples = append(c.seSamples, se)
			c.seTimes = append(c.seTimes, now)
			c.fairSamples = append(c.fairSamples, fair)
			c.fairSums = append(c.fairSums, fsum)
			c.fairSumSqs = append(c.fairSumSqs, fsumSq)
			c.fairNs = append(c.fairNs, n)
			activeSE := -1.0
			if c.rbsThisBlock > 0 && c.RBBandwidthHz > 0 && c.TTISeconds > 0 {
				resourceSecHz := float64(c.rbsThisBlock) * c.RBBandwidthHz * c.TTISeconds
				activeSE = float64(c.bitsThisBlock) / resourceSecHz
				c.activeSamples = append(c.activeSamples, activeSE)
			}
			if c.Obs != nil {
				c.Obs.OnSample(now, se, fair, activeSE)
			}
		}
		c.ttiCount = 0
		c.bitsThisBlock = 0
		c.rbsThisBlock = 0
		c.blockStart = now
		clear(c.ueBlock)
	}
}

// SpectralEfficiencySamples returns the per-block SE series (bit/s/Hz).
func (c *CellTracker) SpectralEfficiencySamples() []float64 { return c.seSamples }

// ActiveSESamples returns the per-block active-resource SE series
// (bits per used RB-second-Hz).
func (c *CellTracker) ActiveSESamples() []float64 { return c.activeSamples }

// MeanActiveSE returns the average active-resource SE.
func (c *CellTracker) MeanActiveSE() float64 { return mean(c.activeSamples) }

// FairnessSamples returns the per-block Jain index series.
func (c *CellTracker) FairnessSamples() []float64 { return c.fairSamples }

// FairnessMoments returns the per-block raw moments behind the
// fairness series: per-user throughput sum, sum of squares, and user
// count for each sampled block. Deployment roll-ups sum these across
// cells block-by-block and recompute Jain over the merged population.
func (c *CellTracker) FairnessMoments() (sums, sumSqs, ns []float64) {
	return c.fairSums, c.fairSumSqs, c.fairNs
}

// SampleTimes returns the sample timestamps.
func (c *CellTracker) SampleTimes() []sim.Time { return c.seTimes }

// MeanSpectralEfficiency returns the average over all samples.
func (c *CellTracker) MeanSpectralEfficiency() float64 { return mean(c.seSamples) }

// MeanFairness returns the average Jain index over all samples.
func (c *CellTracker) MeanFairness() float64 { return mean(c.fairSamples) }

// TotalBits returns cumulative delivered bits.
func (c *CellTracker) TotalBits() int64 { return c.totalBits }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// MeanFloat is the exported mean helper used by the experiment
// harnesses.
func MeanFloat(v []float64) float64 { return mean(v) }

// FloatPercentile returns the p-quantile of an unsorted float slice.
func FloatPercentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	for i := 1; i < len(s); i++ { // insertion sort; series are short
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	idx := p * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// DelayTracker accumulates queueing delays (time from xNodeB ingress
// to first transmission) for the Fig 17 queue-delay columns.
type DelayTracker struct {
	sum   sim.Time
	count int
	sumS  sim.Time // short-flow packets only
	cntS  int
}

// Record adds one packet's queueing delay; short marks packets of
// short flows.
func (d *DelayTracker) Record(delay sim.Time, short bool) {
	d.sum += delay
	d.count++
	if short {
		d.sumS += delay
		d.cntS++
	}
}

// Mean returns the average queueing delay.
func (d *DelayTracker) Mean() sim.Time {
	if d.count == 0 {
		return 0
	}
	return d.sum / sim.Time(d.count)
}

// MeanShort returns the average over short-flow packets.
func (d *DelayTracker) MeanShort() sim.Time {
	if d.cntS == 0 {
		return 0
	}
	return d.sumS / sim.Time(d.cntS)
}

// Count returns recorded packets.
func (d *DelayTracker) Count() int { return d.count }
