package ran

import (
	"fmt"
	"math"

	"outran/internal/channel"
	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/mac"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/pdcp"
	"outran/internal/phy"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/transport"
)

// harqMaxRetx is the maximum HARQ retransmissions before a transport
// block is abandoned to the RLC layer.
const harqMaxRetx = 3

// harqRTT is the retransmission turnaround (8 HARQ processes).
func harqRTT(tti sim.Time) sim.Time { return 8 * tti }

// statusUplinkDelay models the UE->eNB RLC status PDU path.
const statusUplinkDelay = 8 * sim.Millisecond

type harqTB struct {
	pdus     []*rlc.PDU
	bits     int
	attempts int
	readyAt  sim.Time
	reqSINR  float64
	subbands []int // subbands the TB was mapped to (BLER evaluation)
	waited   int   // TTIs a ready retransmission spent blocked
}

type flowRuntime struct {
	ue       int
	tuple    ip.FiveTuple
	size     int64
	seqBase  int64
	start    sim.Time
	sender   *transport.Sender
	receiver *transport.Receiver
	meta     pdcp.FlowMeta
	incast   bool
	record   bool
	// keep marks a persistent-connection flow whose table entry
	// survives completion (FlowOptions.Conn).
	keep       bool
	onComplete func(sim.Time)
}

type ueCtx struct {
	id      int
	addr    ip.Addr
	ch      *channel.Model
	macUser *mac.User
	key     [16]byte // PDCP ciphering key, stable across re-establishment

	pdcpTx *pdcp.Tx
	pdcpRx *pdcp.Rx
	umTx   *rlc.UMTx
	umRx   *rlc.UMRx
	amTx   *rlc.AMTx
	amRx   *rlc.AMRx

	harqPending []*harqTB
	flows       map[ip.FiveTuple]*flowRuntime

	enqueueDrops int

	// The latest CQI report the xNodeB received and has not yet measured
	// into macUser.SubbandCQI: its instant and the SINR offset injected
	// at that instant. See Cell.measureCQI.
	cqiDue bool
	cqiAt  sim.Time
	cqiOff float64
}

// txStatus returns the RLC buffer status plus pending HARQ bytes so
// the MAC keeps scheduling a UE that only has retransmissions left.
// The status aliases RLC-entity scratch (see rlc.UMTx.Status); the
// annotation propagates that contract to txStatus's own callers.
//
//outran:allocfree
//outran:scratch
func (u *ueCtx) txStatus(now sim.Time) mac.BufferStatus {
	var st mac.BufferStatus
	if u.umTx != nil {
		st = u.umTx.Status(now)
	} else {
		st = u.amTx.Status(now)
	}
	for _, tb := range u.harqPending {
		st.TotalBytes += tb.bits / 8
	}
	return st
}

func (u *ueCtx) enqueue(s *rlc.SDU) bool {
	if u.umTx != nil {
		return u.umTx.Enqueue(s)
	}
	return u.amTx.Enqueue(s)
}

// Cell is one xNodeB with its attached UEs and end-to-end plumbing.
type Cell struct {
	Eng  *sim.Engine
	cfg  Config
	grid phy.Grid
	// fingerprint is configFingerprint(cfg), the checkpoint's config
	// section, rendered once.
	fingerprint []byte

	sched    mac.Scheduler
	ues      []*ueCtx
	macUsers []*mac.User
	policy   *core.MLFQ

	Tracker *metrics.CellTracker
	FCT     *metrics.FCTRecorder
	Delay   *metrics.DelayTracker

	// Reg is the cell's metrics registry: the structured home of the
	// counters that used to live as ad-hoc fields. Always non-nil.
	Reg *obs.Registry
	// tracer emits structured trace events; nil (the default) and a
	// nil-sink tracer are both inert. Installed by SetTracer.
	tracer *obs.Tracer

	r        *rng.Source
	sduSeq   uint64
	nextPort uint16

	rttSum sim.Time
	rttCnt int

	ctrHARQFailures *obs.Counter
	ctrHARQTx       *obs.Counter
	ctrHARQRetx     *obs.Counter
	ctrTTIs         *obs.Counter
	histFCT         *obs.Histogram // fct_ms, exponential buckets

	// kpi accumulates live-telemetry state between SampleKPI calls;
	// nil (the default) unless Config.KPIEvery > 0. See kpi.go.
	kpi *kpiState
	// prof attributes wall ns/TTI to sub-TTI phases; nil (the default)
	// is fully inert — one pointer check per site. See SetPhaseProfiler.
	prof *obs.PhaseProfiler

	// Fault-injection plumbing (internal/fault). hooks is the zero
	// value — i.e. fully inert — unless SetFaultHooks was called.
	hooks               FaultHooks
	ctrAMDeliveryFails  *obs.Counter
	ctrHARQFeedbackErrs *obs.Counter
	ctrBackhaulDrops    *obs.Counter
	ctrReestablish      *obs.Counter
	// retired accumulates the loss counters of entities torn down by
	// ReestablishUE so CollectStats spans the whole run.
	retired retiredCounters
	// Per-sample-block accounting for the fairness index (eq. 3): the
	// index is computed over users that contended (were backlogged or
	// served) within the block, from the bits they were served — a
	// starved backlogged user drags the index down, an idle one does
	// not.
	blockBits   []int64
	blockActive []bool
	blockTTIs   int
	blockTputs  []float64

	// grants holds every UE's share of the current TTI's allocation,
	// refilled by rbStats. The subband lists are reused across TTIs;
	// serveUE copies one into a harqTB at TB creation, the only point
	// a list outlives the TTI. runs is rbStats' subband-run scratch.
	grants []ueGrant
	runs   mac.SubbandRuns
	// sinrScratch receives one UE's per-subband SINRs inside
	// measureCQI; sized once in NewCell to the widest UE channel.
	sinrScratch []float64

	// Hot-path arenas (see arena.go): the transport-block free list
	// and the retired-flow graveyard. Pure dead state — field-reset on
	// reuse, never snapshotted; recycling changes memory identity
	// only, never simulated values.
	tbFree    []*harqTB
	flowGrave []deadFlow
	graveHead int

	// The construction-time periodics, held so a checkpoint can record
	// and re-arm their pending ticks (see snapshot.go), and the handler
	// of the cell's external events (see events.go).
	tickTTI   *sim.Periodic
	tickCQI   *sim.Periodic
	tickReset *sim.Periodic
	ext       ExternalHandler
	restored  bool

	// cursors are the workload sources feeding the cell, in the order
	// they were scheduled (see arrivals.go).
	cursors []*arrivalCursor
}

// retiredCounters carries per-entity counters across re-establishment.
type retiredCounters struct {
	evictions        int
	decipherFailures uint64
	reassemblyDrops  uint64
	amAbandoned      uint64
	amRetxBytes      uint64
}

// NewCell builds and wires a cell; the simulation clock starts at 0.
// The configuration is defaulted (Config.WithDefaults) and validated
// (Config.Validate); validation errors name the offending field.
func NewCell(cfg Config) (*Cell, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("invalid cell config: %w", err)
	}
	sched, err := cfg.buildScheduler()
	if err != nil {
		return nil, err
	}
	fct := &metrics.FCTRecorder{}
	if cfg.StreamFCT {
		fct = metrics.NewStreamingFCTRecorder()
	}
	c := &Cell{
		Eng:      &sim.Engine{},
		cfg:      cfg,
		grid:     cfg.Grid,
		sched:    sched,
		Tracker:  metrics.NewCellTracker(cfg.Grid.BandwidthHz()),
		FCT:      fct,
		Delay:    &metrics.DelayTracker{},
		Reg:      obs.NewRegistry(),
		r:        rng.New(cfg.Seed),
		nextPort: 10000,
	}
	c.fingerprint = configFingerprint(cfg)
	if cfg.KPIEvery > 0 {
		c.kpi = newKPIState()
	}
	c.ctrHARQFailures = c.Reg.Counter("harq_failures")
	c.ctrHARQTx = c.Reg.Counter("harq_tx")
	c.ctrHARQRetx = c.Reg.Counter("harq_retx")
	c.ctrTTIs = c.Reg.Counter("ttis")
	c.ctrAMDeliveryFails = c.Reg.Counter("am_delivery_failures")
	c.ctrHARQFeedbackErrs = c.Reg.Counter("harq_feedback_errors")
	c.ctrBackhaulDrops = c.Reg.Counter("backhaul_drops")
	c.ctrReestablish = c.Reg.Counter("reestablishments")
	// 1 ms .. ~2 minutes; FCTs land in milliseconds on every scenario.
	c.histFCT = c.Reg.Histogram("fct_ms", obs.ExpBuckets(1, 2, 17))
	c.Tracker.RBBandwidthHz = cfg.Grid.Numerology.RBBandwidthHz()
	c.Tracker.TTISeconds = cfg.Grid.TTI().Seconds()
	if cfg.usesMLFQ() {
		c.policy, err = cfg.OutRAN.Policy()
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.NumUEs; i++ {
		ue, err := c.newUE(i)
		if err != nil {
			return nil, err
		}
		c.ues = append(c.ues, ue)
		c.macUsers = append(c.macUsers, ue.macUser)
		if n := ue.ch.NumSubbands(); n > len(c.sinrScratch) {
			c.sinrScratch = make([]float64, n)
		}
	}
	c.grants = make([]ueGrant, cfg.NumUEs)
	for i, u := range c.macUsers {
		c.grants[i].sbs = make([]int, 0, len(u.SubbandCQI))
	}
	c.blockBits = make([]int64, cfg.NumUEs)
	c.blockActive = make([]bool, cfg.NumUEs)
	c.blockTputs = make([]float64, 0, cfg.NumUEs)
	c.tickTTI = sim.NewPeriodic(c.Eng, c.grid.TTI(), c.onTTI)
	c.tickCQI = sim.NewPeriodic(c.Eng, cfg.CQIPeriod, c.reportCQI)
	c.reportCQIAt(0)
	if cfg.usesMLFQ() && cfg.OutRAN.ResetPeriod > 0 {
		c.tickReset = sim.NewPeriodic(c.Eng, cfg.OutRAN.ResetPeriod, c.resetFlowStates)
	}
	return c, nil
}

// resetFlowStates is the MLFQ priority-boost tick (§6.3): every flow's
// sent-bytes resets so long-lived latency-sensitive flows regain
// priority.
func (c *Cell) resetFlowStates() {
	for _, ue := range c.ues {
		ue.pdcpTx.ResetFlowStates()
	}
}

func (c *Cell) newUE(id int) (*ueCtx, error) {
	ue := &ueCtx{
		id:    id,
		addr:  ip.AddrFrom(10, 1, byte(id>>8), byte(id&0xff)),
		ch:    c.cfg.Scenario.NewUEChannel(c.grid.CarrierHz, c.r),
		flows: make(map[ip.FiveTuple]*flowRuntime),
	}
	nsb := ue.ch.NumSubbands()
	ue.macUser = &mac.User{ID: mac.UserID(id), SubbandCQI: make([]phy.CQI, nsb)}

	kr := c.r.Fork()
	for i := range ue.key {
		ue.key[i] = byte(kr.Uint64())
	}
	if err := c.wireBearer(ue); err != nil {
		return nil, err
	}
	return ue, nil
}

// wireBearer builds and wires the UE's PDCP and RLC entities. It runs
// once at cell construction and again on RRC re-establishment, which
// is why it is separate from newUE: the channel, MAC user state, key
// and flow table survive a re-establishment, the bearer state does
// not.
func (c *Cell) wireBearer(ue *ueCtx) error {
	classifier, queues := c.cfg.intraQueueing(c.policy)
	delayedSN := false
	promote := false
	if queues > 1 {
		// Any intra-user reordering needs the §4.4 fixes. For OutRAN
		// they are config knobs (so the ablations can break them on
		// purpose); the oracle baselines always get them.
		if c.cfg.usesMLFQ() {
			delayedSN = c.cfg.OutRAN.DelayedSN
			promote = c.cfg.OutRAN.SegmentPromotion
		} else {
			delayedSN = true
			promote = true
		}
	}
	pcfg := pdcp.TxConfig{
		SNBits:    c.cfg.PDCPSNBits,
		DelayedSN: delayedSN,
		Key:       ue.key,
		Bearer:    6, // default bearer, Table 1
	}
	var err error
	ue.pdcpTx, err = pdcp.NewTx(c.Eng, pcfg, classifier, &c.sduSeq)
	if err != nil {
		return err
	}
	ue.pdcpRx, err = pdcp.NewRx(pcfg, func(pkt ip.Packet) { c.onPacketAtUE(ue, pkt) })
	if err != nil {
		return err
	}

	bufCfg := rlc.TxBufConfig{
		Queues:           queues,
		LimitSDUs:        c.cfg.BufferSDUs,
		SegmentPromotion: promote,
		OracleRemaining:  c.cfg.Scheduler == SchedSRJF,
	}
	deliver := func(s *rlc.SDU) {
		if c.tracer.Enabled() {
			c.tracer.Emit(obs.Event{
				T: c.Eng.Now(), Type: obs.EvDeliver,
				UE: ue.id, Flow: s.Flow.String(), SN: int64(s.PDCPSN),
			})
		}
		if h := c.hooks.OnDeliver; h != nil {
			h(ue.id, s)
		}
		ue.pdcpRx.OnSDU(s)
	}
	if c.cfg.RLC == UM {
		ue.umTx = rlc.NewUMTx(bufCfg)
		ue.umTx.AssignSN = ue.pdcpTx.AssignSN
		ue.umRx = rlc.NewUMRx(c.Eng, deliver)
	} else {
		ue.amTx = rlc.NewAMTx(c.Eng, bufCfg)
		ue.amTx.AssignSN = ue.pdcpTx.AssignSN
		ue.amTx.OnDeliveryFail = func(sn uint32, _ *rlc.PDU) {
			c.ctrAMDeliveryFails.Inc()
			if h := c.hooks.OnDeliveryFail; h != nil {
				h(ue.id, sn)
			}
		}
		ue.amRx = rlc.NewAMRx(c.Eng, deliver, func(st *rlc.StatusPDU) {
			c.after(statusUplinkDelay, sim.Event{Kind: evAMStatus, Idx: int32(ue.id), Ptr: st})
		})
	}
	// Re-establishment rebuilds the entities above, so the trace hooks
	// must be re-attached here rather than only in SetTracer.
	c.wireTraceHooks(ue)
	return nil
}

// reportCQI receives every UE's periodic CQI report.
func (c *Cell) reportCQI() { c.reportCQIAt(c.Eng.Now()) }

// reportCQIAt is reportCQI at an explicit time (NewCell primes the
// first report at t = 0, before the engine runs). It records the report
// without evaluating the channel: the channel is a pure function of
// time, so measureCQI evaluates the report's instant later, and only
// for a UE whose CQI is about to be read. The fault hooks do run here,
// for every UE in UE order: they count drops and read injector state
// as of the report instant.
//
//outran:allocfree
func (c *Cell) reportCQIAt(now sim.Time) {
	for _, ue := range c.ues {
		if h := c.hooks.DropCQIReport; h != nil && h(ue.id, now) {
			continue // report lost: the previous one, measured or not, stays the latest
		}
		var off float64
		if h := c.hooks.SINROffsetDB; h != nil {
			off = h(ue.id, now)
		}
		ue.cqiDue, ue.cqiAt, ue.cqiOff = true, now, off
	}
}

// measureCQI brings ue.macUser.SubbandCQI up to the UE's latest
// received report, if that report has not been measured yet.
//
//outran:allocfree
func (c *Cell) measureCQI(ue *ueCtx) {
	if !ue.cqiDue {
		return
	}
	ue.cqiDue = false
	// One batch per UE: the channel evaluates its per-UE terms once
	// for all subbands. cqiOff is 0.0 without a fade, and adding +0.0
	// moves no SINR across a CQI threshold.
	for sb, sinr := range ue.ch.SubbandSINRs(ue.cqiAt, c.sinrScratch) {
		ue.macUser.SubbandCQI[sb] = phy.CQIFromSINR(sinr + ue.cqiOff)
	}
}

// measureAllCQI measures every UE's outstanding report — for the
// points where the whole CQI vector leaves the cell.
func (c *Cell) measureAllCQI() {
	for _, ue := range c.ues {
		c.measureCQI(ue)
	}
}

// onTTI runs one scheduling interval.
func (c *Cell) onTTI() {
	now := c.Eng.Now()
	c.ctrTTIs.Inc()
	tti := c.grid.TTI()
	// Buffer aliases RLC-entity scratch (valid until that entity's next
	// Status call — i.e. this UE's next TTI) and alloc aliases
	// scheduler-owned scratch (valid until the next Allocate); both are
	// consumed within this TTI.
	tMac := c.prof.Begin()
	for i, ue := range c.ues {
		//outran:scratchsafe consumed within this TTI and overwritten here before the entity's next Status call
		c.macUsers[i].Buffer = ue.txStatus(now)
	}
	c.prof.End(obs.PhaseMac, tMac)
	// The scheduler and rbStats read the CQI of backlogged users only
	// (pending HARQ bytes count as backlog), so only their outstanding
	// reports are measured.
	tPhy := c.prof.Begin()
	for i, ue := range c.ues {
		if c.macUsers[i].Buffer.Backlogged() {
			c.measureCQI(ue)
		}
	}
	c.prof.End(obs.PhasePhy, tPhy)
	tMac = c.prof.Begin()
	alloc := c.sched.Allocate(now, c.macUsers, c.grid)
	c.prof.End(obs.PhaseMac, tMac)
	tRlc := c.prof.Begin()
	totalBits := 0
	totalUsedRBs := 0
	c.rbStats(alloc)
	for i, ue := range c.ues {
		g := &c.grants[i]
		var used int
		if g.bits > 0 {
			reqSINR := g.sinrReqSum / float64(g.numRB)
			used = c.serveUE(ue, g.bits, reqSINR, g.sbs)
			if used > 0 {
				c.macUsers[i].LastServed = now
				// Count the RBs that actually carried data (partially
				// filled grants count their filled share).
				frac := float64(used) / float64(g.bits)
				totalUsedRBs += int(frac*float64(g.numRB) + 0.999)
			}
		}
		c.macUsers[i].UpdateAvgTput(used, tti, c.cfg.FairnessWindow)
		c.blockBits[i] += int64(used)
		if used > 0 || c.macUsers[i].Buffer.Backlogged() {
			c.blockActive[i] = true
		}
		totalBits += used
	}
	c.prof.End(obs.PhaseRlc, tRlc)
	tObs := c.prof.Begin()
	c.blockTTIs++
	c.blockTputs = c.blockTputs[:0]
	for i := range c.ues {
		if c.blockActive[i] {
			c.blockTputs = append(c.blockTputs, float64(c.blockBits[i]))
		}
	}
	c.Tracker.OnTTIUsed(now, totalBits, totalUsedRBs, c.blockTputs)
	if c.tracer.Enabled() {
		c.tracer.Emit(obs.Event{
			T: now, Type: obs.EvTTI,
			ServedBits: totalBits, UsedRBs: totalUsedRBs, AllocRBs: alloc.Allocated(),
		})
	}
	if h := c.hooks.OnTTI; h != nil {
		h(now, alloc)
	}
	if c.blockTTIs >= c.Tracker.SamplePeriod {
		c.blockTTIs = 0
		for i := range c.blockBits {
			c.blockBits[i] = 0
			c.blockActive[i] = false
		}
	}
	c.prof.End(obs.PhaseObs, tObs)
	c.prof.OnTTI()
}

// ueGrant is one UE's share of one TTI's allocation: the bits its
// grant carries, the RB count, the summed SINR decode floor, and the
// distinct allocated subbands in ascending order.
type ueGrant struct {
	bits, numRB int
	sinrReqSum  float64
	sbs         []int
}

// rbStats folds one TTI's allocation into c.grants in a single pass
// over the RBs. RBs are visited in ascending order, so each UE's
// sinrReqSum adds its terms in the order a per-UE scan would, and
// keeps its bits. Within a subband run an owner's subband and CQI are
// fixed; they are looked up when the owner changes, not per RB.
//
//outran:allocfree
func (c *Cell) rbStats(alloc mac.Allocation) {
	for i := range c.grants {
		g := &c.grants[i]
		g.bits, g.numRB, g.sinrReqSum, g.sbs = 0, 0, 0, g.sbs[:0]
	}
	numRB := len(alloc.RBOwner)
	bounds := c.runs.Of(c.macUsers, numRB)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		owner := -1
		var g *ueGrant
		var cqi phy.CQI
		for b := lo; b < hi; b++ {
			o := alloc.RBOwner[b]
			if o < 0 {
				continue
			}
			if o != owner {
				owner, g, cqi = o, &c.grants[o], 0
				u := c.macUsers[o]
				if sb := mac.SubbandOfRB(lo, len(u.SubbandCQI), numRB); sb >= 0 {
					cqi = u.SubbandCQI[sb]
					if n := len(g.sbs); n == 0 || g.sbs[n-1] != sb {
						//outran:allocok bounded by the capacity NewCell gave the list: one entry per subband of the UE
						g.sbs = append(g.sbs, sb)
					}
				}
			}
			g.bits += phy.RBBits(cqi)
			g.sinrReqSum += cqi.SINRFloorDB()
			g.numRB++
		}
	}
}

// harqForceAfter is the number of TTIs a ready retransmission may be
// blocked by an insufficient grant before the scheduler allocates it
// the whole opportunity anyway (real eNodeBs prioritise HARQ
// retransmissions when sizing allocations; without this, a TB built
// under a good channel can starve forever once the channel fades).
const harqForceAfter = 4

// serveUE spends up to budgetBits on HARQ retransmissions first, then
// new RLC PDUs. Returns the bits actually used.
func (c *Cell) serveUE(ue *ueCtx, budgetBits int, reqSINR float64, sbs []int) int {
	now := c.Eng.Now()
	used := 0
	// HARQ retransmissions first.
	remaining := ue.harqPending[:0]
	for _, tb := range ue.harqPending {
		if tb.readyAt > now {
			remaining = append(remaining, tb)
			continue
		}
		if tb.bits <= budgetBits-used {
			used += tb.bits
			c.transmitTB(ue, tb)
			continue
		}
		tb.waited++
		if tb.waited > harqForceAfter && used < budgetBits {
			// Force the retransmission out with whatever remains.
			used = budgetBits
			c.transmitTB(ue, tb)
			continue
		}
		remaining = append(remaining, tb)
	}
	ue.harqPending = remaining
	// New data within the leftover opportunity. The TB comes from the
	// free list; PullAppend fills its recycled pdus capacity in place.
	grantBytes := (budgetBits - used) / 8
	tb := c.newTB()
	if ue.umTx != nil {
		if pdu := ue.umTx.Pull(grantBytes); pdu != nil {
			tb.pdus = append(tb.pdus, pdu)
		}
	} else {
		tb.pdus = ue.amTx.PullAppend(tb.pdus, grantBytes)
	}
	if len(tb.pdus) == 0 {
		c.putTB(tb)
		return used
	}
	bits := 0
	for _, pdu := range tb.pdus {
		bits += pdu.Bytes * 8
		if !pdu.Retx && c.tracer.Enabled() {
			// Retransmissions are traced at the AM entity (rlc_retx).
			c.tracer.Emit(obs.Event{
				T: now, Type: obs.EvRLCTx,
				UE: ue.id, SN: int64(pdu.SN), Bytes: pdu.Bytes, Segs: len(pdu.Segments),
			})
		}
		for _, seg := range pdu.Segments {
			if seg.Offset == 0 && !pdu.Retx {
				short := seg.SDU.FlowSize >= 0 && seg.SDU.FlowSize <= metrics.ShortMax
				c.Delay.Record(now-seg.SDU.Arrival, short)
			}
		}
	}
	used += bits
	tb.bits = bits
	tb.reqSINR = reqSINR
	// sbs is cell-owned scratch; the TB outlives the TTI, so it gets
	// its own copy (into the recycled subbands capacity).
	tb.subbands = append(tb.subbands, sbs...)
	c.transmitTB(ue, tb)
	return used
}

// transmitTB sends a transport block over the air: it arrives one TTI
// later and succeeds against the instantaneous channel, with chase
// combining gain on retransmissions. Fault hooks can corrupt the HARQ
// feedback the xNodeB sees (decoupling delivery from retransmission)
// and drop individual RLC PDUs on top of the BLER model.
//
//outran:allocfree
func (c *Cell) transmitTB(ue *ueCtx, tb *harqTB) {
	c.ctrHARQTx.Inc()
	if tb.attempts > 0 {
		c.ctrHARQRetx.Inc()
	}
	c.after(c.grid.TTI(), sim.Event{Kind: evTB, Idx: int32(ue.id), Ptr: tb})
}

// tbArrive is the over-the-air arrival of a transport block, one TTI
// after transmitTB: decode against the instantaneous channel, deliver
// the PDUs upward on success, and re-queue on NACKed feedback.
func (c *Cell) tbArrive(ue *ueCtx, tb *harqTB) {
	now := c.Eng.Now()
	ok := true
	if !c.cfg.DisableHARQ {
		real := c.sinrOver(ue, now, tb.subbands)
		margin := real - tb.reqSINR + 3*float64(tb.attempts)
		p := blerProb(margin)
		ok = c.r.Float64() >= p
	}
	fb := ok
	if h := c.hooks.CorruptHARQFeedback; h != nil {
		fb = h(ue.id, now, ok)
		if fb != ok {
			c.ctrHARQFeedbackErrs.Inc()
		}
	}
	if c.tracer.Enabled() {
		c.tracer.Emit(obs.Event{
			T: now, Type: obs.EvHARQ,
			UE: ue.id, OK: ok, Attempts: tb.attempts, Bits: tb.bits,
		})
	}
	if ok {
		for _, pdu := range tb.pdus {
			if h := c.hooks.DropRLCPDU; h != nil && h(ue.id, now, pdu) {
				continue // lost; UM gives up, AM recovers via NACK
			}
			if ue.umRx != nil {
				ue.umRx.Receive(pdu)
			} else {
				ue.amRx.Receive(pdu)
			}
		}
	}
	if fb {
		// ACK seen (genuine or corrupted): the HARQ process ends.
		// A false ACK on a failed decode loses the TB silently.
		// Either way the TB is terminated: its queue entry was popped
		// to fire this arrival, so this is the last reference.
		c.putTB(tb)
		return
	}
	tb.attempts++
	if tb.attempts > harqMaxRetx {
		c.ctrHARQFailures.Inc()
		c.putTB(tb)
		return // lost; UM gives up, AM recovers via status NACK
	}
	tb.readyAt = now + harqRTT(c.grid.TTI())
	ue.harqPending = append(ue.harqPending, tb)
}

// sinrOver is the instantaneous SINR averaged over the given subbands
// (all subbands when the list is empty) — the channel the transport
// block actually flew over, including any injected fade.
func (c *Cell) sinrOver(ue *ueCtx, now sim.Time, sbs []int) float64 {
	var off float64
	if h := c.hooks.SINROffsetDB; h != nil {
		off = h(ue.id, now)
	}
	return ue.ch.MeanSINROver(now, sbs) + off
}

// blerProb maps the SINR margin (dB) above the MCS decode threshold to
// a block error probability, anchored at the 10% BLER link adaptation
// target for margin 0.
func blerProb(marginDB float64) float64 {
	// Logistic fit: p(0)=0.095, p(2)~0.005, p(-2)~0.68.
	x := 1.5 * (marginDB + 1.5)
	p := 1.0 / (1.0 + math.Exp(x))
	if p < 1e-4 {
		p = 1e-4
	}
	return p
}

// onPacketAtUE handles a deciphered downlink packet at the UE: it is
// fed to the flow's transport receiver, which acks back to the server.
func (c *Cell) onPacketAtUE(ue *ueCtx, pkt ip.Packet) {
	fr := ue.flows[pkt.Tuple]
	if fr == nil {
		return // flow already torn down
	}
	fr.receiver.OnData(int64(pkt.Seq), pkt.PayloadLen, c.Eng.Now())
}

// SetPhaseProfiler installs (or with nil removes) the sub-TTI phase
// profiler. Profiling reads the wall clock, so results are for the run
// summary only — they never enter simulated state or the Registry.
func (c *Cell) SetPhaseProfiler(p *obs.PhaseProfiler) { c.prof = p }

// PhaseProfiler returns the installed profiler (nil when disabled).
func (c *Cell) PhaseProfiler() *obs.PhaseProfiler { return c.prof }

// Users exposes the MAC user states (read-only use). It first brings
// every UE's SubbandCQI current with its latest received report; between
// calls only backlogged UEs are kept current (see reportCQIAt).
func (c *Cell) Users() []*mac.User {
	c.measureAllCQI()
	return c.macUsers
}

// Scheduler returns the active MAC scheduler.
func (c *Cell) Scheduler() mac.Scheduler { return c.sched }

// Grid returns the cell's resource grid.
func (c *Cell) Grid() phy.Grid { return c.grid }

// Config returns the cell configuration (after defaulting).
func (c *Cell) Config() Config { return c.cfg }

// EstimateCapacityBps estimates the cell's raw capacity from the
// attached UEs' mean SINRs.
func (c *Cell) EstimateCapacityBps() float64 {
	if len(c.ues) == 0 {
		return 0
	}
	s := 0.0
	for _, ue := range c.ues {
		cqi := phy.CQIFromSINR(ue.ch.MeanSINRdB())
		s += phy.RatePerRB(cqi, c.grid) * float64(c.grid.NumRB)
	}
	return s / float64(len(c.ues))
}

// capacityDerating folds in what the analytic estimate ignores —
// fading dips below the mean SINR, first-transmission BLER at the 10%
// link-adaptation target, and protocol overheads. Calibrated against
// a saturated PF cell (see TestSaturationProbe-style probes).
const capacityDerating = 0.78

// EffectiveCapacityBps is the deliverable capacity used to calibrate
// offered load, matching how the paper defines cell load.
func (c *Cell) EffectiveCapacityBps() float64 {
	return capacityDerating * c.EstimateCapacityBps()
}

// Stats bundles end-of-run counters not covered by the recorders. It
// is the metrics.RunCounters schema — the one JSON-exportable counter
// set shared by outran-sim, outran-bench, outran-chaos and the trace
// tooling.
type Stats = metrics.RunCounters

// CollectStats summarises the run.
func (c *Cell) CollectStats() Stats {
	st := Stats{
		HARQFailures:       c.ctrHARQFailures.Value(),
		FlowsStarted:       c.FCT.Started(),
		FlowsCompleted:     c.FCT.Completed(),
		TTIs:               c.ctrTTIs.Value(),
		MeanSpectralEff:    c.Tracker.MeanSpectralEfficiency(),
		MeanFairnessIndex:  c.Tracker.MeanFairness(),
		AMDeliveryFailures: c.ctrAMDeliveryFails.Value(),
		HARQFeedbackErrors: c.ctrHARQFeedbackErrs.Value(),
		BackhaulDrops:      c.ctrBackhaulDrops.Value(),
		Reestablishments:   c.ctrReestablish.Value(),
	}
	// Counters retired by ReestablishUE when entities were torn down.
	st.BufferEvictions += c.retired.evictions
	st.DecipherFailures += c.retired.decipherFailures
	st.ReassemblyDrops += c.retired.reassemblyDrops
	st.AMAbandoned += c.retired.amAbandoned
	st.AMRetxBytes += c.retired.amRetxBytes
	for _, ue := range c.ues {
		st.BufferDrops += ue.enqueueDrops
		st.DecipherFailures += ue.pdcpRx.DecipherFailures()
		if ue.umTx != nil {
			st.BufferEvictions += ue.umTx.Evictions()
			st.ReassemblyDrops += ue.umRx.Discarded()
		} else {
			st.BufferEvictions += ue.amTx.Evictions()
			st.AMAbandoned += ue.amTx.Abandoned()
			st.AMRetxBytes += ue.amTx.RetxBytes()
		}
	}
	if c.rttCnt > 0 {
		st.MeanSRTT = c.rttSum / sim.Time(c.rttCnt)
	}
	return st
}
