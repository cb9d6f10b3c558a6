// Package nic models the custom SHRIMP network interface (paper Section 3.2,
// Figure 2). The board sits on both the Xpress memory bus (snoop logic) and
// the EISA expansion bus (everything else) and implements, in hardware, the
// mechanisms VMMC needs:
//
//   - an Outgoing Page Table (OPT) holding bindings to remote destination
//     pages, indexed directly by page number;
//   - snoop logic that watches CPU writes: a write to a page with an
//     automatic-update binding is packetized, with consecutive writes
//     combined into one packet and a hardware timer to flush idle packets;
//   - a Deliberate Update Engine that interprets the two-access transfer
//     initiation sequence and DMAs source data from main memory over EISA;
//   - an outgoing FIFO and an arbiter that shares the network-interface
//     chip's port between outgoing and incoming transfers, incoming having
//     priority;
//   - an Incoming Page Table (IPT) with an entry per page of memory: a
//     receive-enable flag (violations freeze the receive path and interrupt
//     the CPU) and a receiver-interrupt flag; and
//   - an Incoming DMA Engine that writes packet payloads to main memory over
//     EISA, raising a notification interrupt when both the sender-specified
//     packet flag and the receiver-specified IPT flag are set.
package nic

import (
	"fmt"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
	"shrimp/internal/mesh"
	"shrimp/internal/sim"
)

// Interrupt vectors raised to the node CPU.
const (
	VecProtection = 1 // receive to a non-enabled page; receive path frozen
	VecNotify     = 2 // notification interrupt (sender flag ∧ receiver flag)
)

// ProtectionFault is the data handed to the VecProtection IRQ handler.
type ProtectionFault struct {
	Frame mem.PFN
	Src   mesh.NodeID
	// Forced marks a spurious fault injected by ForceFault (fault
	// injection): the held head-of-queue packet, if any, is innocent and
	// must be retried, not dropped.
	Forced bool
}

// Notify is the data handed to the VecNotify IRQ handler.
type Notify struct {
	Frame mem.PFN
	Tag   any // receiver-side tag installed with SetIPT (the export)
	Src   mesh.NodeID
}

// OPTEntry is one outgoing page-table entry: a binding to a remote page.
type OPTEntry struct {
	Valid   bool
	DstNode mesh.NodeID
	DstPFN  mem.PFN // destination page on the remote node
	// Combine enables write-combining of consecutive automatic updates.
	Combine bool
	// CombineTimer enables the flush timeout for an open combined packet.
	CombineTimer bool
	// NotifyOnArrival sets the sender-interrupt flag in generated packet
	// headers (destination interrupt requested).
	NotifyOnArrival bool
}

// IPTEntry is one incoming page-table entry.
type IPTEntry struct {
	// Enable permits the network interface to DMA into the page.
	Enable bool
	// Interrupt is the receiver-specified notification flag.
	Interrupt bool
	// FastNotify, with Interrupt, delivers notifications active-message
	// style: the interface appends a record to a user-level queue
	// instead of interrupting the CPU (the paper's planned
	// reimplementation of notifications, Section 2.3).
	FastNotify bool
	// Tag identifies the export covering this page for the notification
	// and fault paths (opaque to the hardware model).
	Tag any
}

// DUChunk is one packet-sized piece of a deliberate update, produced by the
// VMMC layer after translation and page splitting (the "thin layer" software
// builds these descriptors from the two-access initiation sequence).
type DUChunk struct {
	SrcPA  mem.PA
	OPTIdx int
	DstOff uint32 // offset within the destination page
	N      int
	Notify bool // request destination interrupt (last chunk of a send)
}

// DUJob is a queued deliberate-update transfer.
type DUJob struct {
	chunks   []DUChunk
	readDone bool
	done     *sim.Cond
}

// outPacket is a packet being assembled or queued for injection.
type outPacket struct {
	optIdx int
	dstOff uint32
	data   []byte
	notify bool
}

// NIC is one node's SHRIMP network interface.
type NIC struct {
	M   *kernel.Machine
	Net *mesh.Network
	ID  mesh.NodeID

	// opt and ipt are the outgoing and incoming page tables (see table).
	// optUsed marks the OPT entries AllocOPT has reserved.
	opt      table[OPTEntry]
	optUsed  []bool
	ipt      table[IPTEntry]
	iptPages int // total local frames the table covers

	auByFrame map[mem.PFN]int // local frame -> OPT index (AU binding)

	// Snoop combining state: at most one open packet (the hardware
	// combines only temporally-consecutive writes).
	open        *outPacket
	openLastPA  mem.PA
	combineTime *sim.Timer

	// Outgoing FIFO: packets whose headers are formed, waiting to inject.
	outQ        []*outPacket
	injecting   bool
	packetizing int // packets inside the packetizer pipeline stage

	// The NIC port shared by outgoing and incoming transfers.
	port *sim.Server

	// EISA bus: shared by the DU engine's source reads and the incoming
	// DMA engine's writes.
	eisa *sim.Server

	// Deliberate Update Engine.
	duQ    []*DUJob
	duBusy bool

	// Incoming path.
	inQ    []*mesh.Packet
	inBusy bool
	frozen bool

	// Fault-injection state: outStalled blocks the outgoing arbiter (an
	// injected EISA/port stall); dead means the node crashed and the
	// board does nothing ever again.
	outStalled bool
	dead       bool

	// idleCond is broadcast whenever the outgoing side may have drained;
	// used by Quiesce (unexport/unimport wait for pending messages).
	idleCond *sim.Cond

	// FastNotifyHook receives active-message-style notifications (set by
	// the daemon at boot; nil falls back to the interrupt path).
	FastNotifyHook func(tag any, src mesh.NodeID)

	// Stats.
	PacketsOut, PacketsIn int64
	Faults                int64
	// ForcedFaults counts injected (spurious) protection faults; OutQPeak
	// is the outgoing FIFO's high-water mark — overflow pressure under an
	// injected stall shows up here.
	ForcedFaults int64
	OutQPeak     int

	// track is this NIC's observability track name ("node3/nic"),
	// precomputed so instrumentation never formats strings on the datapath.
	track string
}

// New creates a NIC with the given number of OPT entries, attaches it to the
// backplane, and hooks the node's memory bus snoop.
func New(m *kernel.Machine, net *mesh.Network, id mesh.NodeID, optEntries int) *NIC {
	n := &NIC{
		M:         m,
		Net:       net,
		ID:        id,
		opt:       newTable[OPTEntry](optEntries),
		optUsed:   make([]bool, optEntries),
		ipt:       newTable[IPTEntry](m.Mem.Pages()),
		iptPages:  m.Mem.Pages(),
		auByFrame: make(map[mem.PFN]int),
		port:      sim.NewServer(m.Eng),
		eisa:      sim.NewServer(m.Eng),
		idleCond:  sim.NewCond(m.Eng),
		track:     m.TraceNode + "/nic",
	}
	net.Attach(id, n.incoming)
	m.Mem.SetSnoop(n.snoop)
	return n
}

// chunkShift sizes page-table chunks (256 entries).
const chunkShift = 8

// table is a page table, chunked and demand-allocated: a chunk is
// allocated on the first nonzero write into it and a nil chunk reads as
// zero entries (invalid, receive-disabled). A dense table would cost every
// boot a 4096-entry OPT and a 10k-entry pointer-bearing IPT per NIC;
// real workloads program only a handful of entries.
type table[E comparable] []*[1 << chunkShift]E

func newTable[E comparable](entries int) table[E] {
	return make(table[E], (entries+1<<chunkShift-1)>>chunkShift)
}

func (t table[E]) get(i int) (e E) {
	if c := t[i>>chunkShift]; c != nil {
		e = c[i&(1<<chunkShift-1)]
	}
	return e
}

func (t table[E]) set(i int, e E) {
	c := t[i>>chunkShift]
	if c == nil {
		var zero E
		if e == zero {
			return // an absent chunk already reads as zero
		}
		c = new([1 << chunkShift]E)
		t[i>>chunkShift] = c
	}
	c[i&(1<<chunkShift-1)] = e
}

// --- OPT management (performed by the trusted daemon) ---

// AllocOPT finds base..base+n-1 contiguous free OPT entries and reserves
// them. Contiguity is what lets the deliberate-update initiation address a
// multi-page import with one index.
func (n *NIC) AllocOPT(count int) (int, error) {
	run := 0
	for i, used := range n.optUsed {
		if !used {
			run++
			if run == count {
				base := i - count + 1
				for j := base; j <= i; j++ {
					n.optUsed[j] = true
				}
				return base, nil
			}
		} else {
			run = 0
		}
	}
	return 0, fmt.Errorf("nic: out of OPT entries (%d requested)", count)
}

// FreeOPT releases entries and invalidates them.
func (n *NIC) FreeOPT(base, count int) {
	for i := base; i < base+count; i++ {
		n.SetOPT(i, OPTEntry{})
		n.optUsed[i] = false
	}
}

// SetOPT programs an entry (memory-mapped I/O from the daemon).
func (n *NIC) SetOPT(idx int, e OPTEntry) {
	_ = n.optUsed[idx] // bounds: the last chunk may run past the table
	n.opt.set(idx, e)
}

// GetOPT reads an entry back.
func (n *NIC) GetOPT(idx int) OPTEntry {
	_ = n.optUsed[idx]
	return n.opt.get(idx)
}

// OPTSize returns the table capacity.
func (n *NIC) OPTSize() int { return len(n.optUsed) }

// --- IPT management ---

// SetIPT programs the incoming page-table entry for a local frame.
func (n *NIC) SetIPT(f mem.PFN, e IPTEntry) { n.ipt.set(int(f), e) }

// GetIPT reads the entry for a frame.
func (n *NIC) GetIPT(f mem.PFN) IPTEntry { return n.ipt.get(int(f)) }

// --- Automatic update bindings ---

// BindAU binds a local frame to OPT entry idx: subsequent CPU stores to the
// frame are snooped and packetized toward the entry's destination page.
func (n *NIC) BindAU(localFrame mem.PFN, idx int) {
	if !n.GetOPT(idx).Valid {
		panic("nic: BindAU to invalid OPT entry") //lint:allow transitive-panic hardware assertion: the daemon re-validates the import after its charged syscall time, so an invalid entry here is a daemon bug
	}
	n.auByFrame[localFrame] = idx
	n.M.Mem.SetSnooped(localFrame, true)
}

// UnbindAU removes a frame's automatic-update binding, flushing any open
// combined packet for it first.
func (n *NIC) UnbindAU(localFrame mem.PFN) {
	if idx, ok := n.auByFrame[localFrame]; ok && n.open != nil && n.open.optIdx == idx {
		n.flushOpen()
	}
	delete(n.auByFrame, localFrame)
	n.M.Mem.SetSnooped(localFrame, false)
}

// --- Snoop logic / automatic update outgoing path ---

// snoop observes one CPU store fragment (mem guarantees page-local
// fragments on snooped pages).
func (n *NIC) snoop(pa mem.PA, data []byte) {
	if n.dead {
		return
	}
	idx, ok := n.auByFrame[mem.PageOf(pa)]
	if !ok {
		return
	}
	e := n.GetOPT(idx)
	if !e.Valid {
		return
	}
	// Try to append to the open combined packet.
	if n.open != nil {
		if e.Combine && n.open.optIdx == idx && pa == n.openLastPA &&
			len(n.open.data)+len(data) <= hw.MaxPacketPayload {
			n.open.data = append(n.open.data, data...)
			n.openLastPA = pa + mem.PA(len(data))
			n.M.Trace.Count(n.track, "combine.hit", 1)
			n.armCombineTimer(e)
			return
		}
		n.M.Trace.Count(n.track, "combine.miss", 1)
		n.flushOpen()
	}
	// Start a new packet. Oversized bursts split at the packet payload
	// limit (the hardware starts a fresh packet when one fills).
	for len(data) > 0 {
		take := len(data)
		if take > hw.MaxPacketPayload {
			take = hw.MaxPacketPayload
		}
		n.open = &outPacket{
			optIdx: idx,
			dstOff: uint32(pa % hw.Page),
			data:   append(n.Net.GetBuf(), data[:take]...),
			notify: e.NotifyOnArrival,
		}
		n.openLastPA = pa + mem.PA(take)
		data = data[take:]
		pa += mem.PA(take)
		if len(data) > 0 || !e.Combine {
			n.flushOpen()
		}
	}
	if n.open != nil {
		n.armCombineTimer(e)
	}
}

func (n *NIC) armCombineTimer(e OPTEntry) {
	if !e.CombineTimer {
		// No timer: the packet waits for a non-consecutive write or an
		// explicit flush. (Libraries using combining always enable the
		// timer; this mode exists for testing the hardware behaviour.)
		n.combineTime.Stop()
		return
	}
	if n.combineTime != nil {
		// Built on the first arm and kept for the NIC's lifetime: Reset
		// pushes a pending deadline out, or re-arms a fired or stopped
		// timer, without building a new handle or callback.
		n.combineTime.Reset(hw.CombineTimeout)
		return
	}
	n.combineTime = n.M.Eng.Schedule(hw.CombineTimeout, func() {
		n.M.Trace.Count(n.track, "combine.timeout", 1)
		n.flushOpen()
	})
}

// flushOpen closes the open combined packet and sends it to the packetizer.
func (n *NIC) flushOpen() {
	if n.open == nil {
		return
	}
	pkt := n.open
	n.open = nil
	n.combineTime.Stop()
	n.packetize(pkt)
}

// FlushAU forces out any open combined packet (used by Quiesce).
func (n *NIC) FlushAU() { n.flushOpen() }

// packetize charges header-formation time, then queues in the outgoing FIFO.
func (n *NIC) packetize(pkt *outPacket) {
	n.packetizing++
	if tc := n.M.Trace; tc != nil {
		now := n.M.Eng.Now()
		tc.Add(n.track, "packetize", now, now.Add(hw.PacketizeCost))
		tc.Observe(n.track, "payload.bytes", int64(len(pkt.data)))
	}
	n.M.Eng.Post(hw.PacketizeCost, func() {
		if n.dead {
			return
		}
		n.packetizing--
		n.outQ = append(n.outQ, pkt)
		if len(n.outQ) > n.OutQPeak {
			n.OutQPeak = len(n.outQ)
		}
		n.M.Trace.Gauge(n.track, "outq", int64(len(n.outQ)))
		n.kickInject()
	})
}

// kickInject drains the outgoing FIFO through the shared NIC port. The
// arbiter gives incoming transfers absolute priority (paper Section 3.2):
// while the incoming side is moving packets, outgoing injection stalls and
// resumes when the receive path drains.
func (n *NIC) kickInject() {
	if n.dead || n.outStalled || n.injecting || len(n.outQ) == 0 {
		return
	}
	if n.inBusy || len(n.inQ) > 0 {
		return // arbiter: incoming has the port; retried on drain
	}
	n.injecting = true
	pkt := n.outQ[0]
	n.outQ = n.outQ[1:]
	start, end := n.port.Reserve(hw.NICInjectCost)
	n.M.Trace.Add(n.track, "inject", start, end)
	n.M.Eng.PostAt(end, func() {
		if n.dead {
			return
		}
		e := n.GetOPT(pkt.optIdx)
		if e.Valid {
			n.PacketsOut++
			n.M.Trace.Count(n.track, "packets.out", 1)
			n.Net.Send(&mesh.Packet{
				Src:     n.ID,
				Dst:     e.DstNode,
				DstPFN:  uint32(e.DstPFN),
				DstOff:  pkt.dstOff,
				Notify:  pkt.notify,
				Payload: pkt.data,
				Pooled:  true,
			})
		} else {
			// Packets to entries invalidated while queued are dropped
			// (the daemon quiesces before invalidating, so this is
			// defensive); their buffer goes back to the pool.
			n.Net.PutBuf(pkt.data)
		}
		n.injecting = false
		n.kickInject()
		n.maybeIdle()
	})
}

// --- Deliberate Update Engine ---

// SubmitDU queues a deliberate-update job built by the VMMC layer. The
// returned job's Wait method blocks until the source data has been read out
// of main memory (the blocking-send completion point).
func (n *NIC) SubmitDU(chunks []DUChunk) *DUJob {
	job := &DUJob{chunks: chunks, done: sim.NewCond(n.M.Eng)}
	if n.dead {
		// The board is gone; complete the job vacuously so a caller that
		// somehow still runs does not park forever.
		job.readDone = true
		return job
	}
	n.duQ = append(n.duQ, job)
	n.kickDU()
	return job
}

// Wait blocks p until the job's source read completes.
func (j *DUJob) Wait(p *sim.Proc) {
	for !j.readDone {
		j.done.Wait(p)
	}
}

// ReadDone reports whether the source read has completed (non-blocking
// sends poll this).
func (j *DUJob) ReadDone() bool { return j.readDone }

func (n *NIC) kickDU() {
	if n.duBusy || len(n.duQ) == 0 {
		return
	}
	n.duBusy = true
	job := n.duQ[0]
	n.duQ = n.duQ[1:]
	n.runDUChunk(job, 0, true)
}

// runDUChunk DMAs one chunk of source data over the EISA bus (which also
// occupies the memory bus), packetizes it, then proceeds to the next.
func (n *NIC) runDUChunk(job *DUJob, i int, first bool) {
	if i >= len(job.chunks) {
		job.readDone = true
		job.done.Broadcast()
		n.duBusy = false
		n.kickDU()
		n.maybeIdle()
		return
	}
	c := job.chunks[i]
	setup := hw.DUPerPacketRestart
	if first {
		setup = hw.DUEngineStart
	}
	dur := setup + time.Duration(c.N)*hw.EISADMAPerByte
	dmaStart, eisaEnd := n.eisa.Reserve(dur)
	_, busEnd := n.M.MemBus.ReserveAt(n.M.Eng.Now(), dur)
	end := eisaEnd
	if busEnd > end {
		end = busEnd
	}
	if tc := n.M.Trace; tc != nil {
		tc.Add(n.track, "du.dma", dmaStart, end)
		tc.Observe(n.track, "du.chunk.bytes", int64(c.N))
	}
	n.M.Eng.PostAt(end, func() {
		if n.dead {
			return
		}
		data := n.Net.GetBuf()[:c.N]
		n.M.Mem.ReadInto(c.SrcPA, data)
		n.packetize(&outPacket{
			optIdx: c.OPTIdx,
			dstOff: c.DstOff,
			data:   data,
			notify: c.Notify || n.GetOPT(c.OPTIdx).NotifyOnArrival,
		})
		n.runDUChunk(job, i+1, false)
	})
}

// --- Incoming path ---

func (n *NIC) incoming(pkt *mesh.Packet) {
	if n.dead {
		return
	}
	// The arbiter gives incoming transfers absolute priority on the NIC
	// port; charge the port for the packet's pass-through.
	n.port.Reserve(hw.NICInjectCost)
	n.inQ = append(n.inQ, pkt)
	n.kickIncoming()
}

func (n *NIC) kickIncoming() {
	if n.dead || n.inBusy || n.frozen || len(n.inQ) == 0 {
		return
	}
	n.inBusy = true
	pkt := n.inQ[0]
	n.inQ = n.inQ[1:]

	frame := mem.PFN(pkt.DstPFN)
	if int(frame) >= n.iptPages || !n.GetIPT(frame).Enable {
		// Protection violation: freeze the receive datapath and
		// interrupt the node CPU (paper Section 3.2). The offending
		// packet is held at the head; Unfreeze retries it.
		n.frozen = true
		n.inBusy = false
		n.inQ = append([]*mesh.Packet{pkt}, n.inQ...)
		n.Faults++
		n.M.Trace.Count(n.track, "fault", 1)
		n.M.RaiseIRQ(VecProtection, ProtectionFault{Frame: frame, Src: pkt.Src})
		return
	}

	dur := hw.IPTCheckCost + hw.IncomingDMASetup + time.Duration(len(pkt.Payload))*hw.EISADMAPerByte
	dmaStart, eisaEnd := n.eisa.Reserve(dur)
	_, busEnd := n.M.MemBus.ReserveAt(n.M.Eng.Now(), dur)
	end := eisaEnd
	if busEnd > end {
		end = busEnd
	}
	n.M.Trace.Add(n.track, "in.dma", dmaStart, end)
	n.M.Eng.PostAt(end, func() {
		if n.dead {
			return
		}
		entry := n.GetIPT(frame)
		n.M.Mem.WriteDMA(frame.Base()+mem.PA(pkt.DstOff), pkt.Payload)
		if pkt.Pooled {
			// The bytes are in DRAM; the wire buffer goes back to the
			// pool for the next outgoing packet.
			pkt.Pooled = false
			n.Net.PutBuf(pkt.Payload)
			pkt.Payload = nil
		}
		n.PacketsIn++
		n.M.Trace.Count(n.track, "packets.in", 1)
		if pkt.Notify && entry.Interrupt {
			if entry.FastNotify && n.FastNotifyHook != nil {
				// Append a record to the user-level notification
				// queue — no CPU interrupt.
				tag, src := entry.Tag, pkt.Src
				n.M.Trace.Count(n.track, "notify.fast", 1)
				n.M.Eng.Post(hw.FastNotifyPost, func() { n.FastNotifyHook(tag, src) })
			} else {
				n.M.Trace.Count(n.track, "notify.irq", 1)
				n.M.RaiseIRQ(VecNotify, Notify{Frame: frame, Tag: entry.Tag, Src: pkt.Src})
			}
		}
		n.inBusy = false
		n.kickIncoming()
		n.kickInject() // arbiter: outgoing resumes when incoming drains
		n.maybeIdle()
	})
}

// Frozen reports whether the receive path is frozen on a protection fault.
func (n *NIC) Frozen() bool { return n.frozen }

// Unfreeze resumes the receive path (kernel/daemon action after handling a
// protection fault). The faulting packet is retried; if the page is still
// not enabled it faults again. Drop permits discarding it instead.
func (n *NIC) Unfreeze(drop bool) {
	if !n.frozen {
		return
	}
	n.frozen = false
	if drop && len(n.inQ) > 0 {
		n.inQ = n.inQ[1:]
	}
	n.kickIncoming()
}

// --- Fault injection and crash ---

// ForceFault injects a spurious receive protection fault: the receive
// path freezes and the protection interrupt fires with Forced set, as if
// the IPT lookup had glitched. Arriving packets queue behind the freeze
// (a storm of these is the "receive-freeze storm" fault plan). The
// daemon's handler resumes the path with Unfreeze(false) — the held
// packet is innocent.
func (n *NIC) ForceFault(src mesh.NodeID) {
	if n.dead || n.frozen {
		return
	}
	n.frozen = true
	n.Faults++
	n.ForcedFaults++
	n.M.Trace.Count(n.track, "fault.forced", 1)
	n.M.RaiseIRQ(VecProtection, ProtectionFault{Frame: 0, Src: src, Forced: true})
}

// StallOutgoing blocks the outgoing arbiter for d: nothing injects, so
// packetized data piles up in the outgoing FIFO (overflow pressure,
// observable via OutQPeak) and drains when the stall lifts.
func (n *NIC) StallOutgoing(d time.Duration) {
	if n.dead || n.outStalled {
		return
	}
	n.outStalled = true
	n.M.Eng.Post(d, func() {
		n.outStalled = false
		if n.dead {
			return
		}
		n.kickInject()
		n.maybeIdle()
	})
}

// Crash kills the board: queues are abandoned, timers stop, and every
// datapath entry point becomes a no-op. Pending DU jobs complete
// vacuously so no survivor parks on them.
func (n *NIC) Crash() {
	if n.dead {
		return
	}
	n.dead = true
	n.combineTime.Stop()
	n.open = nil
	n.outQ = nil
	n.inQ = nil
	n.frozen = false
	n.inBusy = false
	n.injecting = false
	for _, job := range n.duQ {
		job.readDone = true
		job.done.Broadcast()
	}
	n.duQ = nil
	n.duBusy = false
	n.idleCond.Broadcast()
}

// Dead reports whether the board has crashed.
func (n *NIC) Dead() bool { return n.dead }

// --- Quiescing (unexport/unimport support) ---

func (n *NIC) maybeIdle() {
	if n.OutgoingIdle() || n.IncomingIdle() {
		n.idleCond.Broadcast()
	}
}

// OutgoingIdle reports whether no automatic-update packet is open, the
// packetizer and outgoing FIFO are empty, and the DU engine has no queued or
// running work.
func (n *NIC) OutgoingIdle() bool {
	return n.open == nil && n.packetizing == 0 && len(n.outQ) == 0 &&
		!n.injecting && !n.duBusy && len(n.duQ) == 0
}

// IncomingIdle reports whether the receive path has no queued or in-progress
// packets.
func (n *NIC) IncomingIdle() bool { return !n.inBusy && len(n.inQ) == 0 }

// QuiesceIncoming blocks p until the receive path drains.
func (n *NIC) QuiesceIncoming(p *sim.Proc) {
	for !n.IncomingIdle() {
		n.idleCond.WaitTimeout(p, 10*time.Microsecond)
	}
}

// Quiesce blocks p until the outgoing side drains, flushing any open
// combined packet first. The daemons call this before tearing down
// mappings ("these calls wait for all currently pending messages using the
// mapping to be delivered").
func (n *NIC) Quiesce(p *sim.Proc) {
	n.flushOpen()
	for !n.OutgoingIdle() {
		n.idleCond.WaitTimeout(p, 10*time.Microsecond)
	}
}

// EISA exposes the EISA bus server (the VMMC layer charges the user-level
// two-access initiation sequence against it).
func (n *NIC) EISA() *sim.Server { return n.eisa }

// MakeDUChunk builds one deliberate-update chunk.
func MakeDUChunk(srcPA mem.PA, optIdx int, dstOff uint32, n int, notify bool) DUChunk {
	return DUChunk{SrcPA: srcPA, OPTIdx: optIdx, DstOff: dstOff, N: n, Notify: notify}
}
