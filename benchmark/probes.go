package main

import (
	"fmt"

	"outran/internal/core"
	"outran/internal/ip"
	"outran/internal/metrics"
	"outran/internal/pdcp"
	"outran/internal/ran"
	"outran/internal/rlc"
	"outran/internal/rng"
	"outran/internal/sim"
	"outran/internal/snapshot"
	"outran/internal/transport"
	"outran/internal/workload"
)

// probeOps is how many operations a stand-alone probe times; enough
// that one probe runs for tens of milliseconds.
const probeOps = 200_000

// mss is the transport's default segment payload.
const mss = 1400

// mlfqClassifier adapts the MLFQ policy to the PDCP classifier
// interface the way the cell does: priority from sent bytes alone.
type mlfqClassifier struct{ policy *core.MLFQ }

func (c mlfqClassifier) Classify(sent int64, _ pdcp.FlowMeta) int { return c.policy.PriorityFor(sent) }

// runProbes times single layers on their own, outside any cell, with
// inputs drawn from the traced pass's flow schedule. Each probe is a
// child span of the pass root.
func runProbes(h ran.Harness, tc *tracedCell, m map[string]float64, log *spanLog, quick bool) error {
	ops := probeOps
	if quick {
		ops /= 20
	}
	cfg := tc.cell.Config()
	r := rng.New(cfg.Seed ^ 0x70726f6265) // "probe": private stream, fixed per workload
	pkts := probePackets(tc.flows, ops)
	var firstErr error
	probe := func(name string, fn func() (int, error)) float64 {
		id := log.begin("cell", name, tc.root)
		n, err := fn()
		ns := log.end(id)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("probe %s: %w", name, err)
		}
		return ratio(ns, float64(n))
	}

	policy, err := cfg.OutRAN.Policy()
	if err != nil {
		return err
	}
	var sdus []*rlc.SDU
	m["pdcp.sdu_ns"] = probe("pdcp.sdu", func() (int, error) {
		eng := &sim.Engine{}
		var seq uint64
		pcfg := pdcp.TxConfig{SNBits: cfg.PDCPSNBits, Bearer: 6}
		tx, err := pdcp.NewTx(eng, pcfg, mlfqClassifier{policy}, &seq)
		if err != nil {
			return 0, err
		}
		rx, err := pdcp.NewRx(pcfg, nil)
		if err != nil {
			return 0, err
		}
		for _, p := range pkts {
			s := tx.Submit(p, pdcp.FlowMeta{FlowSize: -1})
			rx.OnSDU(s)
			sdus = append(sdus, s)
		}
		if n := rx.DecipherFailures(); n != 0 {
			return 0, fmt.Errorf("%d decipher failures", n)
		}
		return len(pkts), nil
	})

	m["rlc.pdu_ns"] = probe("rlc.pdu", func() (int, error) {
		eng := &sim.Engine{}
		tx := rlc.NewUMTx(rlc.TxBufConfig{Queues: policy.NumQueues(), LimitSDUs: cfg.BufferSDUs, SegmentPromotion: cfg.OutRAN.SegmentPromotion})
		rx := rlc.NewUMRx(eng, func(*rlc.SDU) {})
		pdus := 0
		for _, s := range sdus {
			tx.Enqueue(s)
			// Grants between a sliver and two SDUs: segmentation and
			// concatenation both occur.
			for tx.QueuedSDUs() > 0 {
				pdu := tx.Pull(64 + r.Intn(2*(mss+ip.HeadersLen)))
				if pdu == nil {
					break
				}
				rx.Receive(pdu)
				pdus++
			}
		}
		if got := rx.Delivered(); got != uint64(len(sdus)) {
			return 0, fmt.Errorf("delivered %d of %d SDUs", got, len(sdus))
		}
		return pdus, nil
	})
	sdus = nil

	m["transport.segment_ns"] = probe("transport.flow", func() (int, error) {
		eng := &sim.Engine{}
		delay := cfg.Path.WiredDelay
		segs := 0
		for _, f := range tc.flows {
			if segs >= ops {
				break
			}
			size := min(f.Size, 64*mss) // long flows repeat the steady state
			tuple := ip.FiveTuple{Src: ip.AddrFrom(10, 0, 0, 1), Dst: ip.AddrFrom(10, 1, 0, byte(f.UE)), SrcPort: 443, DstPort: uint16(segs), Proto: ip.ProtoTCP}
			snd := transport.NewSender(eng, cfg.Transport, tuple, size)
			rcv := &transport.Receiver{}
			snd.Send = func(p ip.Packet) {
				eng.After(delay, func() { rcv.OnData(int64(p.Seq), p.PayloadLen, eng.Now()) })
			}
			rcv.SendAck = func(ack int64) { eng.After(delay, func() { snd.OnAck(ack) }) }
			snd.Start()
			eng.Run()
			if !snd.Completed() {
				return 0, fmt.Errorf("%d-byte flow did not complete", size)
			}
			segs += int((size + mss - 1) / mss)
		}
		return segs, nil
	})

	m["sim.event_ns"] = probe("sim.event", func() (int, error) {
		eng := &sim.Engine{}
		far := sim.Time(1) << 60
		for i := 0; i < int(m["sim.pending_mean"]); i++ {
			eng.At(far+sim.Time(r.Intn(1<<30)), func() {})
		}
		fired := 0
		for i := 1; i <= ops; i++ {
			eng.At(sim.Time(i), func() { fired++ })
			eng.RunUntil(sim.Time(i))
		}
		return fired, nil
	})

	m["metrics.record_ns"] = probe("metrics.record", func() (int, error) {
		rec := &metrics.FCTRecorder{}
		if cfg.StreamFCT {
			rec = metrics.NewStreamingFCTRecorder()
		}
		for i := 0; i < ops; i++ {
			f := tc.flows[i%len(tc.flows)]
			rec.Record(metrics.FCTSample{Size: f.Size, FCT: sim.Time(1+r.Intn(1000)) * sim.Millisecond, UE: f.UE})
		}
		return ops, nil
	})

	if h.Snapshots && firstErr == nil {
		firstErr = probeSnapshot(h, m, log, tc.root)
	}
	return firstErr
}

// probeTuples bounds the distinct five-tuples the packet probes use to
// what one UE's flow table holds in a run; with the probe's clock
// standing still nothing ever idles out of the table.
const probeTuples = 512

// probePackets returns n transport segments cut from the schedule's
// flows, in schedule order, cycling if the schedule is short.
func probePackets(flows []workload.FlowSpec, n int) []ip.Packet {
	pkts := make([]ip.Packet, 0, n)
	for i := 0; len(pkts) < n; i++ {
		f, k := flows[i%len(flows)], i%probeTuples
		tuple := ip.FiveTuple{Src: ip.AddrFrom(10, 0, 0, 1), Dst: ip.AddrFrom(10, 1, 0, byte(k%64)), SrcPort: 443, DstPort: uint16(10000 + k), Proto: ip.ProtoTCP}
		for off := int64(0); off < f.Size && off < 16*mss && len(pkts) < n; off += mss {
			pkts = append(pkts, ip.Packet{Tuple: tuple, Seq: uint32(off), PayloadLen: int(min(mss, f.Size-off))})
		}
	}
	return pkts
}

// snapshotReps is how many encode/restore round trips the snapshot
// probe takes the median of.
const snapshotReps = 5

// probeSnapshot advances a checkpointable cell to mid-window and times
// Cell.Snapshot, then snapshot.Open + RestoreSnapshot into fresh cells.
func probeSnapshot(h ran.Harness, m map[string]float64, log *spanLog, root int) error {
	cell, err := h.Build()
	if err != nil {
		return err
	}
	cell.Run(h.Warmup + h.Window/2)
	var enc, dec []float64
	for i := 0; i < snapshotReps; i++ {
		id := log.begin("cell", "snapshot.encode", root)
		img, err := cell.Snapshot()
		enc = append(enc, log.end(id))
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		fresh, err := ran.NewCell(h.Config)
		if err != nil {
			return err
		}
		id = log.begin("cell", "snapshot.restore", root)
		a, err := snapshot.Open(img)
		if err == nil {
			err = fresh.RestoreSnapshot(a)
		}
		dec = append(dec, log.end(id))
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	m["snapshot.encode_ns_per_cell"] = median(enc)
	m["snapshot.restore_ns_per_cell"] = median(dec)
	return nil
}
