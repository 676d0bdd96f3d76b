package experiments

import (
	"fmt"
	"runtime"
	"time"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/mac"
	"outran/internal/pdcp"
	"outran/internal/phy"
	"outran/internal/rng"
	"outran/internal/sim"
)

func init() {
	register("fig13", Fig13)
	register("fig14", Fig14)
}

// mlfqCls adapts core.MLFQ to the PDCP classifier for the overhead
// microbenchmarks (mirrors the adapter inside internal/ran).
type mlfqCls struct{ p *core.MLFQ }

func (c mlfqCls) Classify(sent int64, _ pdcp.FlowMeta) int { return c.p.PriorityFor(sent) }

// Fig13 reproduces the throughput & resource usage measurement: the
// per-SDU cost of OutRAN's flow identification and the flow-table
// memory footprint as the number of active flows scales from 1k to 8k,
// plus the resulting fraction of the 125 µs NR µ3 TTI — the paper's
// argument that the overhead cannot dent the processing throughput.
func Fig13(opt Options) ([]Table, error) {
	t := Table{
		Title: "Fig 13: OutRAN flow-identification overhead vs active flows",
		Header: []string{"flows", "ns_per_SDU", "flowtable_KB", "pct_of_125us_TTI",
			"throughput_headroom"},
	}
	for _, nFlows := range []int{1000, 2000, 4000, 8000} {
		perSDU, tableKB, err := measureInspect(nFlows)
		if err != nil {
			return nil, err
		}
		pct := perSDU / 125000 * 100
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nFlows),
			fmt.Sprintf("%.0f", perSDU),
			fmt.Sprintf("%d", tableKB),
			fmt.Sprintf("%.3f%%", pct),
			"OK (per-SDU cost ≪ TTI)",
		})
	}
	return []Table{t}, nil
}

// measureInspect times PDCP Submit (header inspection + flow table +
// MLFQ tagging + ciphering) over nFlows concurrent flows.
//
// Wall clock: measures real per-SDU CPU cost (Table 2), not simulated time
func measureInspect(nFlows int) (nsPerSDU float64, tableKB int, err error) {
	eng := &sim.Engine{}
	var seq uint64
	tx, err := pdcp.NewTx(eng, pdcp.TxConfig{SNBits: 12, Bearer: 6}, mlfqCls{core.DefaultMLFQ()}, &seq)
	if err != nil {
		return 0, 0, err
	}
	r := rng.New(99)
	pkts := make([]ip.Packet, nFlows)
	for i := range pkts {
		pkts[i] = ip.Packet{
			Tuple: ip.FiveTuple{
				Src: ip.AddrFrom(10, 0, byte(i>>8), byte(i)), Dst: ip.AddrFrom(10, 1, 0, 1),
				SrcPort: 443, DstPort: uint16(1024 + i%60000), Proto: ip.ProtoTCP,
			},
			PayloadLen: 1400,
		}
	}
	const rounds = 30
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for round := 0; round < rounds; round++ {
		for i := range pkts {
			pkts[i].Seq = uint32(r.Uint64())
			if tx.Submit(pkts[i], pdcp.FlowMeta{FlowSize: -1}) == nil {
				return 0, 0, fmt.Errorf("submit failed")
			}
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	heap := max(0, int64(m1.HeapAlloc)-int64(m0.HeapAlloc))
	return float64(elapsed.Nanoseconds()) / float64(n), int(heap / 1024), nil
}

// Fig14 reproduces the scalability-vs-RBs measurement: wall-clock cost
// of one TTI of MAC scheduling for PF vs OutRAN as the number of RBs
// grows. Both decide once per subband run, so the cost follows the
// subband count (13 here at every width) plus one owner write per RB,
// and OutRAN's second pass stays a small constant factor.
func Fig14(opt Options) ([]Table, error) {
	t := Table{
		Title:  "Fig 14: per-TTI scheduling cost vs number of RBs (20 users)",
		Header: []string{"RBs", "PF_us_per_TTI", "OutRAN_us_per_TTI", "ratio", "pct_of_1ms_TTI"},
	}
	const users = 20
	for _, rbs := range []int{25, 50, 75, 100} {
		pf := measureSched(mac.NewPF(), users, rbs)
		outran, err := core.NewInterUser(mac.PFMetric, "PF", 0.2)
		if err != nil {
			return nil, err
		}
		or := measureSched(outran, users, rbs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rbs),
			fmt.Sprintf("%.1f", pf),
			fmt.Sprintf("%.1f", or),
			f2(or / pf),
			fmt.Sprintf("%.2f%%", or/1000*100),
		})
	}
	return []Table{t}, nil
}

// measureSched times Allocate in microseconds per TTI.
//
// Wall clock: measures real scheduler CPU cost (Fig 14), not simulated time
func measureSched(s mac.Scheduler, nUsers, nRB int) float64 {
	grid := phy.Grid{Numerology: phy.Mu0, NumRB: nRB, CarrierHz: 2.68e9}
	r := rng.New(7)
	users := make([]*mac.User, nUsers)
	for i := range users {
		cqis := make([]phy.CQI, 13)
		for j := range cqis {
			cqis[j] = phy.CQI(1 + r.Intn(15))
		}
		perPrio := make([]int, 4)
		perPrio[r.Intn(4)] = 1000
		users[i] = &mac.User{
			ID:         mac.UserID(i),
			SubbandCQI: cqis,
			AvgTputBps: 1e5 + r.Float64()*1e7,
			Buffer:     mac.BufferStatus{TotalBytes: 1000, PerPriority: perPrio},
		}
	}
	// A TTI costs a few microseconds, so time enough of them to stand
	// clear of timer and scheduling jitter, after the scratch has grown.
	s.Allocate(0, users, grid)
	const ttis = 5000
	start := time.Now()
	for i := 1; i <= ttis; i++ {
		s.Allocate(sim.Time(i)*sim.Millisecond, users, grid)
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / ttis
}
