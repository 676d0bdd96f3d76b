// Package mac implements the downlink MAC scheduler of an xNodeB: the
// metric allocation framework of §4.1 (eq. 1 / Algorithm 1), which
// decides once per subband run and assigns per RB, and the concrete
// schedulers the paper evaluates — Proportional Fair, Maximum
// Throughput, Round Robin, the SRJF oracle, and the QoS-aware PSS and
// CQA baselines. The OutRAN inter-user scheduler in internal/core wraps
// any metric from this package.
package mac

import (
	"math"

	"outran/internal/phy"
	"outran/internal/sim"
)

// UserID identifies an attached UE within a cell.
type UserID int

// BufferStatus is the downlink buffer state the RLC reports to the MAC
// via the Buffer Status Report. OutRAN extends the BSR with the
// per-MLFQ-priority queued bytes (§4.3 / Appendix B); the oracle and
// QoS fields feed the SRJF/PSS/CQA baselines only.
type BufferStatus struct {
	// TotalBytes queued for the UE across all queues.
	TotalBytes int
	// PerPriority holds queued bytes per MLFQ priority (index 0 is the
	// highest priority). Nil when the RLC runs a plain FIFO.
	PerPriority []int
	// HOLArrival is the arrival time of the head-of-line SDU (zero
	// value when the buffer is empty).
	HOLArrival sim.Time
	// OracleMinRemaining is the smallest remaining flow size (bytes)
	// among flows with queued data — SRJF's clairvoyant input.
	// Negative when unknown/unused.
	OracleMinRemaining int64
	// QoSBytes is the number of queued bytes belonging to flows with a
	// dedicated low-latency QoS profile (PSS/CQA baselines).
	QoSBytes int
	// QoSHOLArrival is the arrival time of the oldest queued QoS SDU.
	QoSHOLArrival sim.Time
	// QoSDelayBudget is the packet delay budget of the QoS profile
	// (e.g. 50 ms); zero when no QoS flows are queued.
	QoSDelayBudget sim.Time
}

// Backlogged reports whether the UE has data to schedule.
func (b BufferStatus) Backlogged() bool { return b.TotalBytes > 0 }

// TopPriority returns the index of the highest-priority non-empty MLFQ
// queue, or K (one past the last) when PerPriority is empty/absent.
// Lower is better, matching the paper's P1 > P2 > … ordering.
func (b BufferStatus) TopPriority() int {
	for i, n := range b.PerPriority {
		if n > 0 {
			return i
		}
	}
	return len(b.PerPriority)
}

// User is the MAC-visible state of one attached UE, refreshed by the
// cell every TTI (buffer status) and every CQI period (channel).
type User struct {
	ID UserID
	// SubbandCQI is the latest measured CQI report per subband. The
	// cell keeps it current for backlogged users — the only ones a
	// scheduler may read it for — and for every user after Cell.Users().
	SubbandCQI []phy.CQI
	// AvgTputBps is the exponentially smoothed served throughput
	// (the PF scheduler's long-term average, eq. 1).
	AvgTputBps float64
	// Buffer is the latest buffer status report.
	Buffer BufferStatus
	// LastServed is when the user last received any RB (RR input).
	LastServed sim.Time
}

// CQIForRB maps an RB index to the CQI of the subband containing it
// (SubbandOfRB), 0 for a user that has reported none.
func (u *User) CQIForRB(rb, numRB int) phy.CQI {
	if len(u.SubbandCQI) == 0 {
		return 0
	}
	return u.SubbandCQI[SubbandOfRB(rb, len(u.SubbandCQI), numRB)]
}

// UpdateAvgTput folds one TTI's served bits into the PF average with
// smoothing factor beta = TTI/T_f (the fairness window, §6.3).
func (u *User) UpdateAvgTput(servedBits int, tti sim.Time, fairnessWindow sim.Time) {
	if fairnessWindow <= 0 {
		return
	}
	beta := float64(tti) / float64(fairnessWindow)
	if beta > 1 {
		beta = 1
	}
	inst := float64(servedBits) / tti.Seconds()
	u.AvgTputBps = (1-beta)*u.AvgTputBps + beta*inst
}

// minAvgTput floors the PF denominator so new users are not divided
// by zero (standard PF bootstrap).
const minAvgTput = 1e3

func pfDenominator(u *User) float64 {
	return math.Max(u.AvgTputBps, minAvgTput)
}
