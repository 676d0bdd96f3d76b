package ran

import (
	"fmt"
	"math"
	"slices"

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
	// tx and rx are the bearer's RLC entities, UM or AM: wireBearer
	// is the one place that picks the mode.
	tx rlcTx
	rx rlcRx

	harqPending []*harqTB
	flows       map[ip.FiveTuple]*flowRuntime

	enqueueDrops int

	// The latest CQI report the xNodeB received and has not yet measured
	// into macUser.SubbandCQI: its instant and the SINR offset injected
	// at that instant. See Cell.measureCQI.
	cqiDue bool
	cqiAt  sim.Time
	cqiOff float64

	// listed is set while the UE is on the cell's awake list or waiting
	// to join it (Cell.wake). avgAt counts the TTIs whose PF decay
	// macUser.AvgTputBps holds; it trails the cell's count only while
	// the UE is off the awake list (Cell.catchUpAvg).
	listed bool
	avgAt  uint64
}

// rlcTx is a bearer's transmitting RLC entity: *rlc.UMTx or *rlc.AMTx.
type rlcTx interface {
	Enqueue(*rlc.SDU) bool
	PullAppend(out []*rlc.PDU, grant int) []*rlc.PDU
	Status(now sim.Time) mac.BufferStatus
	QueuedBytes() int
	Evictions() int
	Abandoned() uint64
	RetxBytes() uint64
	Audit() error
	Close()
	Walk(*rlc.Refs)
}

// rlcRx is a bearer's receiving RLC entity: *rlc.UMRx or *rlc.AMRx.
type rlcRx interface {
	Receive(*rlc.PDU)
	Discarded() uint64
	Skipped() uint64
	Audit() error
	Close()
	Walk(*rlc.Refs)
}

// txStatus returns the RLC buffer status plus pending HARQ bytes so
// the MAC keeps scheduling a UE that only has retransmissions left.
// The status aliases RLC-entity scratch (see rlc.UMTx.Status), so it
// is valid only until the entity's next Status call.
//
//outran:allocfree
func (u *ueCtx) txStatus(now sim.Time) mac.BufferStatus {
	// Every UE every TTI: a call through the interface would keep
	// UMTx.Status from being inlined here, so name the two types.
	var st mac.BufferStatus
	switch tx := u.tx.(type) {
	case *rlc.UMTx:
		st = tx.Status(now)
	case *rlc.AMTx:
		st = tx.Status(now)
	}
	for _, tb := range u.harqPending {
		st.TotalBytes += tb.bits / 8
	}
	return st
}

// addLosses adds the loss counters of the UE's current PDCP receiver
// and RLC entities into st: CollectStats for the live entities,
// ReestablishUE for the ones it tears down.
func (u *ueCtx) addLosses(st *Stats) {
	st.BufferEvictions += u.tx.Evictions()
	st.DecipherFailures += u.pdcpRx.DecipherFailures()
	st.ReassemblyDrops += u.rx.Discarded()
	st.SkippedPDUs += u.rx.Skipped()
	st.AMAbandoned += u.tx.Abandoned()
	st.AMRetxBytes += u.tx.RetxBytes()
}

// Cell is one xNodeB with its attached UEs and end-to-end plumbing.
type Cell struct {
	Eng  *sim.Engine
	cfg  Config
	grid phy.Grid
	// fingerprint is configFingerprint(cfg), the checkpoint's config
	// section, rendered by the first checkpoint or restore; nil until
	// then.
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
	// checker asserts the runtime invariants every TTI, delivery and
	// re-establishment; nil (the default) is inert. See InstallChecker.
	checker *checker

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

	// Fault-injection plumbing (internal/fault). hooks perturbs the
	// layers and is the zero value — i.e. fully inert — unless
	// SetFaultHooks was called.
	hooks               FaultHooks
	ctrAMDeliveryFails  *obs.Counter
	ctrHARQFeedbackErrs *obs.Counter
	ctrBackhaulDrops    *obs.Counter
	ctrReestablish      *obs.Counter
	// retired accumulates the loss counters (addLosses) of entities
	// torn down by ReestablishUE so CollectStats spans the whole run.
	retired Stats
	// grants holds every UE's share of the current TTI's allocation,
	// refilled by rbStats. The subband lists are reused across TTIs;
	// serveUE copies one into a harqTB at TB creation, the only point
	// a list outlives the TTI. runs is rbStats' subband-run scratch.
	grants []ueGrant
	runs   mac.SubbandRuns
	// awake lists, in ascending index order, the UEs the TTI walks:
	// every UE that may have something to send. woken holds the UEs
	// woken since the last TTI, which joins them to awake. ttis counts
	// the TTIs run, for the lazy PF decay of the UEs off the list. All
	// three are derived state, never checkpointed: a restored cell
	// starts with every UE woken. See "An idle UE costs nothing per
	// TTI" in DESIGN.md.
	awake, woken []int
	ttis         uint64
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

	// restored is set once RestoreSnapshot has overlaid a snapshot.
	restored bool

	// cursors are the workload sources feeding the cell, in the order
	// they were scheduled (see arrivals.go).
	cursors []*arrivalCursor
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
		Tracker:  metrics.NewCellTracker(cfg.Grid.BandwidthHz(), cfg.NumUEs),
		FCT:      fct,
		Delay:    &metrics.DelayTracker{},
		Reg:      obs.NewRegistry(),
		r:        rng.New(cfg.Seed),
		nextPort: 10000,
		awake:    make([]int, 0, cfg.NumUEs),
		woken:    make([]int, 0, cfg.NumUEs),
	}
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
	c.after(c.grid.TTI(), sim.Event{Kind: evTTI})
	c.after(cfg.CQIPeriod, sim.Event{Kind: evCQI})
	c.reportCQIAt(0)
	if cfg.resetsMLFQ() {
		c.after(cfg.OutRAN.ResetPeriod, sim.Event{Kind: evFlowReset})
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
// not. It wakes the UE, so the next TTI reads the new entities' status.
func (c *Cell) wireBearer(ue *ueCtx) error {
	c.wake(ue)
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
		if k := c.checker; k != nil {
			k.deliver(c.Eng.Now(), ue.id, s)
		}
		ue.pdcpRx.OnSDU(s)
	}
	if c.cfg.RLC == UM {
		tx := rlc.NewUMTx(bufCfg)
		tx.AssignSN = ue.pdcpTx.AssignSN
		ue.tx, ue.rx = tx, rlc.NewUMRx(c.Eng, deliver)
	} else {
		tx := rlc.NewAMTx(c.Eng, bufCfg)
		tx.AssignSN = ue.pdcpTx.AssignSN
		tx.Wake = func() { c.wake(ue) }
		rx := rlc.NewAMRx(c.Eng, deliver, func(st *rlc.StatusPDU) {
			c.after(statusUplinkDelay, sim.Event{Kind: evAMStatus, Idx: int32(ue.id), Ptr: st})
		})
		tx.OnDeliveryFail = func(sn uint32, pdu *rlc.PDU) {
			rx.Abandon(sn, pdu)
			c.ctrAMDeliveryFails.Inc()
			if h := c.hooks.OnDeliveryFail; h != nil {
				h(ue.id, sn)
			}
		}
		ue.tx, ue.rx = tx, rx
	}
	// Re-establishment rebuilds the entities above, so the trace hooks
	// must be re-attached here rather than only in SetTracer.
	c.wireTraceHooks(ue)
	return nil
}

// reportCQIAt receives every UE's periodic CQI report at now: on each
// evCQI tick, and once at t = 0 from NewCell, before the engine runs.
// It records the report without evaluating the channel: the channel is
// a pure function of time, so measureCQI evaluates the report's instant
// later, and only for a UE whose CQI is about to be read. The fault
// hooks do run here, for every UE in UE order: they count drops and
// read injector state as of the report instant.
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

// wake puts the UE on the awake list from the next TTI on. It is
// called wherever a UE off the list can gain bytes to send: RLC
// enqueue, a HARQ NACK's re-queue, an AM status report, AM's
// t-PollRetransmit, and wireBearer. Waking a UE that has nothing to
// send costs one TTI's walk and changes nothing else.
//
//outran:allocfree
func (c *Cell) wake(ue *ueCtx) {
	if !ue.listed {
		ue.listed = true
		// Not a steady-state allocation: bounded by the capacity NewCell gave the list: one entry per UE, each at most once
		c.woken = append(c.woken, ue.id)
	}
}

// admitWoken merges the UEs woken since the last TTI into the awake
// list, keeping it in index order, so the TTI serves the UEs in the
// order a walk over every UE would. Each joins with its PF average
// caught up.
//
//outran:allocfree
func (c *Cell) admitWoken() {
	if len(c.woken) == 0 {
		return
	}
	for _, i := range c.woken {
		c.catchUpAvg(c.ues[i])
	}
	slices.Sort(c.woken)
	// Merge from the back, in place: a woken UE is never already awake.
	a, w := len(c.awake)-1, len(c.woken)-1
	c.awake = c.awake[:len(c.awake)+len(c.woken)]
	for k := len(c.awake) - 1; w >= 0; k-- {
		if a >= 0 && c.awake[a] > c.woken[w] {
			c.awake[k], a = c.awake[a], a-1
		} else {
			c.awake[k], w = c.woken[w], w-1
		}
	}
	c.woken = c.woken[:0]
}

// catchUpAvg applies the PF decays a UE missed off the awake list: one
// UpdateAvgTput with nothing served per TTI, the very arithmetic the
// TTI would have done, so the average keeps every bit (a closed form
// through math.Pow would not). A zero average stays zero.
//
//outran:allocfree
func (c *Cell) catchUpAvg(ue *ueCtx) {
	u, tti := ue.macUser, c.grid.TTI()
	for ; ue.avgAt < c.ttis && u.AvgTputBps != 0; ue.avgAt++ {
		u.UpdateAvgTput(0, tti, c.cfg.FairnessWindow)
	}
	ue.avgAt = c.ttis
}

// catchUpAvgs brings every UE's PF average current, for the points
// where AvgTputBps leaves the cell: KPI samples, checkpoints, Users.
func (c *Cell) catchUpAvgs() {
	for _, ue := range c.ues {
		c.catchUpAvg(ue)
	}
}

// onTTI runs one scheduling interval. Every per-UE step walks the awake
// list, not every attached UE: a UE off the list has nothing to send,
// so its status is empty, it gets no grant and is served nothing.
func (c *Cell) onTTI() {
	now := c.Eng.Now()
	c.ctrTTIs.Inc()
	tti := c.grid.TTI()
	// Buffer aliases RLC-entity scratch (valid until that entity's next
	// Status call) and alloc aliases scheduler-owned scratch (valid
	// until the next Allocate); both are consumed within this TTI. An
	// off-list UE's Buffer still aliases the scratch of its last Status
	// call, which found the buffer empty; with nothing queued since, a
	// fresh call would report the same.
	tMac := c.prof.Begin()
	c.admitWoken()
	for _, i := range c.awake {
		// Retaining scratch is safe: consumed within this TTI and overwritten here before the entity's next Status call
		c.macUsers[i].Buffer = c.ues[i].txStatus(now)
	}
	c.prof.End(obs.PhaseMac, tMac)
	// The scheduler and rbStats read the CQI of backlogged users only
	// (pending HARQ bytes count as backlog), so only their outstanding
	// reports are measured.
	tPhy := c.prof.Begin()
	for _, i := range c.awake {
		if c.macUsers[i].Buffer.Backlogged() {
			c.measureCQI(c.ues[i])
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
	// A UE whose status was empty this TTI leaves the list; only a wake
	// brings it back.
	stay := c.awake[:0]
	for _, i := range c.awake {
		ue, u, g := c.ues[i], c.macUsers[i], &c.grants[i]
		var used int
		if g.bits > 0 {
			reqSINR := g.sinrReqSum / float64(g.numRB)
			used = c.serveUE(ue, g.bits, reqSINR, g.sbs)
			if used > 0 {
				u.LastServed = now
				// Count the RBs that actually carried data (partially
				// filled grants count their filled share).
				frac := float64(used) / float64(g.bits)
				totalUsedRBs += int(frac*float64(g.numRB) + 0.999)
			}
		}
		u.UpdateAvgTput(used, tti, c.cfg.FairnessWindow)
		ue.avgAt = c.ttis + 1
		backlogged := u.Buffer.Backlogged()
		c.Tracker.OnUE(i, used, used > 0 || backlogged)
		totalBits += used
		if backlogged {
			stay = append(stay, i)
		} else {
			ue.listed = false
		}
	}
	c.awake = stay
	c.ttis++
	c.prof.End(obs.PhaseRlc, tRlc)
	tObs := c.prof.Begin()
	c.Tracker.OnTTIUsed(now, totalBits, totalUsedRBs)
	if c.tracer.Enabled() {
		c.tracer.Emit(obs.Event{
			T: now, Type: obs.EvTTI,
			ServedBits: totalBits, UsedRBs: totalUsedRBs, AllocRBs: alloc.Allocated(),
		})
	}
	if k := c.checker; k != nil {
		k.tti(now, alloc, c.AuditInvariants())
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
// over the RBs, after zeroing the grants of the awake UEs: only those
// can hold one. RBs are visited in ascending order, so each UE's
// sinrReqSum adds its terms in the order a per-UE scan would, and
// keeps its bits. Within a subband run an owner's subband and CQI are
// fixed; they are looked up when the owner changes, not per RB.
//
//outran:allocfree
func (c *Cell) rbStats(alloc mac.Allocation) {
	for _, i := range c.awake {
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
						// Not a steady-state allocation: bounded by the capacity NewCell gave the list: one entry per subband of the UE
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
	tb.pdus = ue.tx.PullAppend(tb.pdus, grantBytes)
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
	if len(tb.pdus) == 0 {
		c.putTB(tb) // flushed by a re-establishment (flushBearer)
		return
	}
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
			ue.rx.Receive(pdu)
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
	c.wake(ue)
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
// every UE's SubbandCQI current with its latest received report and
// its AvgTputBps with the TTIs it spent off the awake list; between
// calls only backlogged UEs are kept current (see reportCQIAt and
// catchUpAvg).
func (c *Cell) Users() []*mac.User {
	c.measureAllCQI()
	c.catchUpAvgs()
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
// set shared by outran-sim, outran-bench (its chaos sweep included)
// and the trace tooling.
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
	st.Add(c.retired) // the losses of entities torn down by ReestablishUE
	for _, ue := range c.ues {
		st.BufferDrops += ue.enqueueDrops
		ue.addLosses(&st)
	}
	if c.rttCnt > 0 {
		st.MeanSRTT = c.rttSum / sim.Time(c.rttCnt)
	}
	return st
}
