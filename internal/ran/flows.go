package ran

import (
	"fmt"

	"outran/internal/ip"
	"outran/internal/metrics"
	"outran/internal/obs"
	"outran/internal/pdcp"
	"outran/internal/sim"
	"outran/internal/transport"
)

// serverAddr is the application server behind the P-GW.
var serverAddr = ip.AddrFrom(10, 0, 0, 1)

// qosDelayBudget is the low-latency profile the PSS/CQA baselines
// enforce on short flows.
const qosDelayBudget = 50 * sim.Millisecond

// FlowOptions customises one flow.
type FlowOptions struct {
	// Incast marks the flow for the §6.3 incast experiment metrics.
	Incast bool
	// SkipRecord excludes the flow from the FCT recorder (warm-up or
	// helper traffic).
	SkipRecord bool
	// OnComplete fires with the flow completion time.
	OnComplete func(fct sim.Time)
	// Conn, when set, reuses a persistent connection's five-tuple
	// (QUIC-like multiplexing, §4.2's limitation).
	Conn *Conn
}

// Conn is a persistent transport connection whose five-tuple is reused
// by consecutive logical flows.
type Conn struct {
	UE    int
	Tuple ip.FiveTuple

	cell    *Cell
	nextSeq int64
}

// NewConn allocates a persistent connection to the given UE.
func (c *Cell) NewConn(ue int) (*Conn, error) {
	if ue < 0 || ue >= len(c.ues) {
		return nil, fmt.Errorf("ran: no UE %d", ue)
	}
	tuple, err := c.allocTuple(ue)
	if err != nil {
		return nil, err
	}
	return &Conn{UE: ue, Tuple: tuple, cell: c}, nil
}

// AdoptConn returns a persistent connection bound to an explicit
// five-tuple — the continuation of a flow handed over from a source
// cell. PDCP classifies the continued flow from its imported
// sent-bytes state, so a demoted flow resumes at its demoted priority
// instead of restarting at the top.
func (c *Cell) AdoptConn(ue int, tuple ip.FiveTuple) (*Conn, error) {
	if ue < 0 || ue >= len(c.ues) {
		return nil, fmt.Errorf("ran: no UE %d", ue)
	}
	return &Conn{UE: ue, Tuple: tuple, cell: c}, nil
}

// allocTuple gives a new flow to the UE the next port of the cell-wide
// counter, which wraps from 65535 to 10000. Once it has wrapped, a port
// can still be carrying a long flow of the same UE; such ports are
// skipped, since two live flows on one tuple would share a flow-table
// entry and receive each other's packets.
func (c *Cell) allocTuple(ue int) (ip.FiveTuple, error) {
	u := c.ues[ue]
	for range 1 << 16 {
		c.nextPort++
		if c.nextPort == 0 {
			c.nextPort = 10000
		}
		tuple := ip.FiveTuple{
			Src:     serverAddr,
			Dst:     u.addr,
			SrcPort: 443,
			DstPort: c.nextPort,
			Proto:   ip.ProtoTCP,
		}
		if u.flows[tuple] == nil {
			return tuple, nil
		}
	}
	return ip.FiveTuple{}, fmt.Errorf("ran: UE %d has a live flow on every port", ue)
}

// StartFlow launches a size-byte downlink flow to UE ue at the current
// simulation time.
func (c *Cell) StartFlow(ue int, size int64, opt FlowOptions) error {
	if ue < 0 || ue >= len(c.ues) {
		return fmt.Errorf("ran: no UE %d", ue)
	}
	if size <= 0 {
		return fmt.Errorf("ran: non-positive flow size %d", size)
	}
	if size >= metrics.SizeLimit {
		return fmt.Errorf("ran: flow size %d not below %d, the FCT recorder's limit", size, int64(metrics.SizeLimit))
	}
	ueCtx := c.ues[ue]
	var tuple ip.FiveTuple
	var seqBase int64
	if opt.Conn != nil {
		if opt.Conn.UE != ue {
			return fmt.Errorf("ran: conn belongs to UE %d, not %d", opt.Conn.UE, ue)
		}
		tuple = opt.Conn.Tuple
		seqBase = opt.Conn.nextSeq
		opt.Conn.nextSeq += size
	} else {
		var err error
		if tuple, err = c.allocTuple(ue); err != nil {
			return err
		}
	}

	// Recycle a retired runtime (sender, receiver and the struct
	// itself) when the graveyard has one past its hold; otherwise
	// allocate. Both paths produce field-identical state.
	fr := c.reclaimFlow()
	if fr == nil {
		fr = &flowRuntime{
			sender:   transport.NewSender(c.Eng, c.cfg.Transport, tuple, size),
			receiver: &transport.Receiver{},
		}
	} else {
		fr.sender.Reset(tuple, size)
		fr.receiver.Reset()
	}
	sender, receiver := fr.sender, fr.receiver
	*fr = flowRuntime{
		ue:         ue,
		tuple:      tuple,
		size:       size,
		seqBase:    seqBase,
		start:      c.Eng.Now(),
		sender:     sender,
		receiver:   receiver,
		incast:     opt.Incast,
		record:     !opt.SkipRecord,
		keep:       opt.Conn != nil,
		onComplete: opt.OnComplete,
	}
	fr.meta = c.flowMeta(size)

	if opt.Conn != nil {
		// Continue the connection's receive state: pre-advance cumack
		// to the base so earlier flows' bytes are already "received".
		fr.receiver.OnData(0, int(seqBase), c.Eng.Now())
	}
	c.wireFlow(ueCtx, fr)

	// A persistent connection's new flow displaces its completed
	// predecessor on the same tuple; retire that runtime too (an
	// incomplete predecessor — overlapping logical flows — stays out
	// of the arena, as before).
	if prev := ueCtx.flows[tuple]; prev != nil && prev.sender.Completed() {
		c.retireFlow(prev)
	}
	ueCtx.flows[tuple] = fr
	if fr.record {
		c.FCT.FlowStarted()
	}
	if c.tracer.Enabled() {
		c.tracer.Emit(obs.Event{
			T: fr.start, Type: obs.EvFlowStart,
			UE: ue, Flow: tuple.String(), Size: size,
		})
	}
	fr.sender.Start()
	return nil
}

// flowMeta derives the PDCP flow metadata a flow of the given size
// carries — factored out of StartFlow so the snapshot-restore path
// recomputes exactly the same metadata for a resumed flow.
func (c *Cell) flowMeta(size int64) pdcp.FlowMeta {
	m := pdcp.FlowMeta{FlowSize: size}
	if c.cfg.QoSShortFlows && size <= metrics.ShortMax {
		m.QoS = true
		m.DelayBudget = qosDelayBudget
	}
	return m
}

// packSACK packs a SACK block into an ACK event's B: its two ends as
// 32-bit offsets above the acknowledged byte, or 0 for none (or one too
// far above it to pack, which the sender then does without).
func packSACK(ack, lo, hi int64) int64 {
	if lo <= ack || hi-ack >= 1<<31 {
		return 0
	}
	return (lo-ack)<<32 | (hi - ack)
}

// wireFlow attaches the transport callbacks (downlink send, uplink
// ack, completion) to a flow runtime. StartFlow calls it for new flows
// and the restore path for resumed ones; everything the callbacks need
// lives on fr so both paths produce identical wiring.
func (c *Cell) wireFlow(u *ueCtx, fr *flowRuntime) {
	sender, recv := fr.sender, fr.receiver
	tuple, seqBase := fr.tuple, fr.seqBase
	sender.Send = func(pkt ip.Packet) {
		pkt.Seq += uint32(seqBase)
		delay := c.cfg.Path.WiredDelay
		if h := c.hooks.Backhaul; h != nil {
			extra, drop := h(c.Eng.Now())
			if drop {
				c.ctrBackhaulDrops.Inc()
				return
			}
			delay += extra
		}
		c.after(delay, sim.Event{Kind: evPacket, Idx: int32(fr.ue), Ptr: &pkt})
	}
	recv.SendSACK = func(ack, lo, hi int64) {
		rel := ack - seqBase
		if rel <= 0 {
			return
		}
		c.after(c.cfg.Path.UplinkDelay, sim.Event{Kind: evAck, A: rel, B: packSACK(ack, lo, hi), Ptr: fr})
	}
	sender.OnComplete = func() {
		fct := c.Eng.Now() - fr.start
		if fr.record {
			c.FCT.Record(metrics.FCTSample{Size: fr.size, FCT: fct, UE: fr.ue, Incast: fr.incast})
			c.histFCT.Observe(float64(fct) / float64(sim.Millisecond))
			c.observeKPIFCT(fct)
		}
		if c.tracer.Enabled() {
			c.tracer.Emit(obs.Event{
				T: c.Eng.Now(), Type: obs.EvFlowEnd,
				UE: fr.ue, Flow: tuple.String(), Size: fr.size, FCT: fct,
			})
		}
		c.rttSum += sender.SRTT()
		c.rttCnt++
		if !fr.keep {
			delete(u.flows, tuple)
		}
		if fr.onComplete != nil {
			fr.onComplete(fct)
		}
		if !fr.keep {
			// Off the flow table and fully acked: nothing simulated
			// can reach the runtime again, so park it for reuse. Kept
			// (persistent-connection) runtimes retire when the next
			// flow on the tuple displaces them.
			c.retireFlow(fr)
		}
	}
}

// deliverToXNB ingests one downlink packet at the base station.
func (c *Cell) deliverToXNB(ue *ueCtx, pkt ip.Packet) {
	tPdcp := c.prof.Begin()
	defer c.prof.End(obs.PhasePdcp, tPdcp)
	fr := ue.flows[pkt.Tuple]
	meta := pdcp.FlowMeta{FlowSize: -1}
	if fr != nil {
		meta = fr.meta
	}
	sdu := ue.pdcpTx.Submit(pkt, meta)
	if sdu == nil {
		return
	}
	if !ue.tx.Enqueue(sdu) {
		ue.enqueueDrops++
		return
	}
	c.wake(ue)
}

// Run advances the simulation to the given time.
func (c *Cell) Run(until sim.Time) { c.Eng.RunUntil(until) }
