package mesh

import (
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// Link-level reliability sublayer: per-(src,dst) sequence numbers, a wire
// checksum, and go-back-N retransmission with timeout and exponential
// backoff. SHRIMP's real backplane is flow-controlled and lossless, so the
// sublayer is OFF by default and the calibrated figure timings never see
// it; enabling it (cluster.Config.Reliable, or Network.EnableReliability)
// makes acknowledged delivery survive the fault injector's drop/corrupt/
// reorder faults, the way every production interconnect descendant of
// VMMC grew a link-level retry layer.
//
// Acknowledgements are small control packets carried on the routers'
// sideband credit channels: they pay per-hop latency and header
// serialization but do not occupy the data channels, so at a 0% fault
// rate the sublayer adds zero perturbation to data timing. Acks are
// cumulative (ack N acknowledges every sequence ≤ N) and are themselves
// subject to injected drops; the sender's retransmit timer recovers.

// RelConfig tunes the reliability sublayer. The zero value selects the
// defaults noted on each field.
type RelConfig struct {
	// Timeout is the initial retransmit timeout (default 30us — several
	// worst-case round trips across the largest supported mesh).
	Timeout time.Duration
	// MaxBackoff caps the exponential backoff (default 500us).
	MaxBackoff time.Duration
	// MaxRetries is the number of consecutive timeouts without forward
	// progress before a flow is abandoned — the peer is presumed dead
	// (default 12).
	MaxRetries int
}

func (c RelConfig) withDefaults() RelConfig {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Microsecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Microsecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 12
	}
	return c
}

// RelStats are the sublayer's tallies, for tests and chaos reports.
type RelStats struct {
	Retransmits  int64 // data packets re-sent after a timeout
	AcksSent     int64 // ack control packets emitted
	DupDrops     int64 // out-of-sequence arrivals discarded (go-back-N)
	ChecksumDrop int64 // arrivals discarded by the wire checksum
	FlowsAborted int64 // flows abandoned after MaxRetries (peer dead)
}

// relFlow is the sender-side state of one (src,dst) pair.
type relFlow struct {
	src, dst NodeID
	nextSeq  uint32    // last assigned sequence number
	unacked  []*Packet // sent, not yet cumulatively acked, in seq order
	timer    *sim.Timer
	rto      time.Duration
	retries  int
	aborted  bool
}

// relRecv is the receiver-side state of one (src,dst) pair.
type relRecv struct {
	expect uint32 // next in-order sequence number
}

// reliability is the sublayer attached to a Network.
type reliability struct {
	n     *Network
	cfg   RelConfig
	flows map[[2]NodeID]*relFlow
	recvs map[[2]NodeID]*relRecv
	stats RelStats
}

// EnableReliability turns the link-level retransmit sublayer on. Must be
// called before any traffic flows.
func (n *Network) EnableReliability(cfg RelConfig) {
	n.rel = &reliability{
		n:     n,
		cfg:   cfg.withDefaults(),
		flows: make(map[[2]NodeID]*relFlow),
		recvs: make(map[[2]NodeID]*relRecv),
	}
}

// Reliable reports whether the retransmit sublayer is enabled.
func (n *Network) Reliable() bool { return n.rel != nil }

// RelStats returns the sublayer tallies (zero value when disabled).
func (n *Network) RelStats() RelStats {
	if n.rel == nil {
		return RelStats{}
	}
	return n.rel.stats
}

func (r *reliability) flow(src, dst NodeID) *relFlow {
	key := [2]NodeID{src, dst}
	f := r.flows[key]
	if f == nil {
		f = &relFlow{src: src, dst: dst, rto: r.cfg.Timeout}
		r.flows[key] = f
	}
	return f
}

func (r *reliability) recv(src, dst NodeID) *relRecv {
	key := [2]NodeID{src, dst}
	rv := r.recvs[key]
	if rv == nil {
		rv = &relRecv{expect: 1}
		r.recvs[key] = rv
	}
	return rv
}

// send assigns the next sequence number, records the packet for
// retransmission, and transmits it.
func (r *reliability) send(pkt *Packet) {
	f := r.flow(pkt.Src, pkt.Dst)
	if f.aborted {
		// The peer was declared dead for this flow; the packet is lost
		// the way a send into a downed link is.
		r.n.PacketsDropped++
		return
	}
	f.nextSeq++
	pkt.Seq = f.nextSeq
	f.unacked = append(f.unacked, pkt)
	r.arm(f)
	r.n.transmit(pkt)
}

// outstanding reports the sender-side unacked count for a pair, which
// WaitDrained folds into InFlight: un-acked data is still "in the pipe".
func (r *reliability) outstanding(src, dst NodeID) int {
	if f := r.flows[[2]NodeID{src, dst}]; f != nil {
		return len(f.unacked)
	}
	return 0
}

// arm starts the retransmit timer if it is not already pending.
func (r *reliability) arm(f *relFlow) {
	if f.timer != nil && f.timer.Pending() {
		return
	}
	f.timer = r.n.eng.Schedule(f.rto, func() { r.expire(f) })
}

// expire is the retransmit timeout: back off and go-back-N resend the
// whole unacked window, or abandon the flow after MaxRetries.
func (r *reliability) expire(f *relFlow) {
	if len(f.unacked) == 0 || f.aborted {
		return
	}
	f.retries++
	if f.retries > r.cfg.MaxRetries {
		r.abort(f)
		return
	}
	f.rto *= 2
	if f.rto > r.cfg.MaxBackoff {
		f.rto = r.cfg.MaxBackoff
	}
	for _, pkt := range f.unacked {
		r.stats.Retransmits++
		r.n.transmit(pkt)
	}
	r.arm(f)
}

// abort abandons a flow (peer presumed dead) and releases anyone waiting
// on the drain condition.
func (r *reliability) abort(f *relFlow) {
	if f.aborted {
		return
	}
	f.aborted = true
	f.unacked = nil
	if f.timer != nil {
		f.timer.Stop()
	}
	r.stats.FlowsAborted++
	r.n.drained.Broadcast()
}

// onData runs at the receiver when a sequenced data packet arrives:
// in-order packets are delivered and cumulatively acked; anything else is
// discarded (go-back-N keeps no reorder buffer) and the last good
// sequence number re-acked so the sender resynchronizes quickly.
func (r *reliability) onData(pkt *Packet) {
	rv := r.recv(pkt.Src, pkt.Dst)
	if pkt.Seq == rv.expect {
		rv.expect++
		r.n.deliver(pkt)
	} else {
		r.stats.DupDrops++
	}
	r.sendAck(pkt.Dst, pkt.Src, rv.expect-1)
}

// onCorrupt runs at the receiver when a packet failed its wire checksum:
// discard, and re-ack the last good sequence number.
func (r *reliability) onCorrupt(src, dst NodeID) {
	rv := r.recv(src, dst)
	r.stats.ChecksumDrop++
	r.sendAck(dst, src, rv.expect-1)
}

// onAck runs at the original sender when a cumulative ack arrives:
// everything ≤ pkt.Seq leaves the retransmit window, and forward progress
// resets the backoff.
func (r *reliability) onAck(pkt *Packet) {
	// The ack travels dst→src of the data flow, so the flow key is the
	// reverse of the ack packet's addressing.
	f := r.flows[[2]NodeID{pkt.Dst, pkt.Src}]
	if f == nil || f.aborted {
		return
	}
	trimmed := 0
	for trimmed < len(f.unacked) && f.unacked[trimmed].Seq <= pkt.Seq {
		trimmed++
	}
	if trimmed == 0 {
		return
	}
	f.unacked = f.unacked[trimmed:]
	f.retries = 0
	f.rto = r.cfg.Timeout
	if f.timer != nil {
		f.timer.Stop()
	}
	if len(f.unacked) > 0 {
		r.arm(f)
	}
	r.n.drained.Broadcast()
}

// sendAck emits a cumulative ack control packet on the sideband: per-hop
// latency plus header serialization, no data-channel occupancy, subject
// to injected drops and armed partitions (a cut link carries nothing,
// sideband included — otherwise go-back-N would paper over partitions).
func (r *reliability) sendAck(from, to NodeID, acked uint32) {
	r.stats.AcksSent++
	if r.n.inj != nil && r.n.inj.AckLostPath(int(from), int(to), time.Duration(r.n.eng.Now())) {
		return
	}
	ack := &Packet{Src: from, Dst: to, Seq: acked, Ack: true}
	hops := len(r.n.Route(from, to)) + 1 // router hops + eject
	latency := time.Duration(hops)*hw.MeshHopLatency +
		time.Duration(hw.PacketHeaderBytes)*hw.MeshLinkPerByte
	r.n.eng.Post(latency, func() {
		if r.n.dead[ack.Dst] {
			return
		}
		r.onAck(ack)
	})
}

// resetNode clears all sublayer state touching a node: its NIC state died
// with it, so sequence numbers restart from 1 on both sides when (if) the
// node comes back. Pending sends toward the node are aborted. Iterates by
// node index, not map order, so the schedule stays deterministic.
func (r *reliability) resetNode(id NodeID) {
	drop := func(key [2]NodeID) {
		f := r.flows[key]
		if f == nil {
			return
		}
		if len(f.unacked) > 0 {
			r.abort(f)
		} else if f.timer != nil {
			f.timer.Stop()
		}
		delete(r.flows, key)
	}
	for other := 0; other < r.n.Nodes(); other++ {
		o := NodeID(other)
		drop([2]NodeID{o, id})
		drop([2]NodeID{id, o})
		delete(r.recvs, [2]NodeID{o, id})
		delete(r.recvs, [2]NodeID{id, o})
	}
}
