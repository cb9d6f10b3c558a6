package nx

import (
	"fmt"
	"math/bits"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/mem"
)

// candidate is a matchable message found in a connection's packet buffers.
type candidate struct {
	cn  *conn
	buf int
	h   hdr
}

// Crecv blocks until a message matching typesel arrives, copies it into buf
// (truncating at count bytes), and returns the number of bytes of the
// message delivered. Message info is available via Infocount/Infotype/
// Infonode afterwards.
func (nx *NX) Crecv(typesel int, buf kernel.VA, count int) int {
	p := nx.proc()
	span := nx.tc.Begin(nx.track, "crecv")
	defer span.End()
	p.Compute(hw.CallCost)
	for {
		nx.servicePending()
		if m, ok := nx.match(typesel); ok {
			return nx.consume(m, buf, count)
		}
		if sm := nx.matchSelf(typesel); sm != nil {
			return nx.consumeSelf(sm, buf, count)
		}
		nx.flushAllCredits()
		p.WaitPred(nil, nx.wakeConds, func() bool {
			return nx.matchExists(typesel) || nx.pendingActionable()
		})
	}
}

// Cprobe blocks until a message matching typesel is available (without
// consuming it) and records its info.
func (nx *NX) Cprobe(typesel int) {
	p := nx.proc()
	p.Compute(hw.CallCost)
	for {
		nx.servicePending()
		if m, ok := nx.match(typesel); ok {
			nx.lastCount = m.h.fullSize
			nx.lastType = m.h.typ
			nx.lastNode = m.cn.peer
			nx.lastPid = m.h.pid
			return
		}
		if sm := nx.matchSelf(typesel); sm != nil {
			nx.lastCount = len(sm.data)
			nx.lastType = sm.typ
			nx.lastNode = nx.node
			nx.lastPid = sm.pid
			return
		}
		nx.flushAllCredits()
		p.WaitPred(nil, nx.wakeConds, func() bool {
			return nx.matchExists(typesel) || nx.pendingActionable()
		})
	}
}

// Iprobe reports whether a matching message is available, recording its
// info if so.
func (nx *NX) Iprobe(typesel int) bool {
	p := nx.proc()
	p.Compute(hw.CallCost)
	nx.servicePending()
	if m, ok := nx.match(typesel); ok {
		nx.lastCount = m.h.fullSize
		nx.lastType = m.h.typ
		nx.lastNode = m.cn.peer
		nx.lastPid = m.h.pid
		return true
	}
	if sm := nx.matchSelf(typesel); sm != nil {
		nx.lastCount = len(sm.data)
		nx.lastType = sm.typ
		nx.lastNode = nx.node
		nx.lastPid = sm.pid
		return true
	}
	return false
}

// postedRecv is an asynchronous receive created by Irecv.
type postedRecv struct {
	typesel int
	buf     kernel.VA
	count   int
	done    bool
	got     int
}

// Irecv posts an asynchronous receive. Matching happens during subsequent
// library calls (Msgwait/Msgdone or any blocking call).
func (nx *NX) Irecv(typesel int, buf kernel.VA, count int) ID {
	nx.proc().Compute(hw.CallCost)
	nx.nextID++
	id := nx.nextID
	nx.recvs[id] = &postedRecv{typesel: typesel, buf: buf, count: count}
	return id
}

// Msgdone polls an asynchronous operation for completion.
func (nx *NX) Msgdone(id ID) bool {
	p := nx.proc()
	p.Compute(hw.CallCost)
	nx.servicePending()
	if zs, ok := nx.sends[id]; ok {
		if !zs.complete {
			nx.tryFinishZC(zs)
		}
		if zs.complete {
			delete(nx.sends, id)
			return true
		}
		return false
	}
	if r, ok := nx.recvs[id]; ok {
		nx.serviceRecv(r)
		if r.done {
			delete(nx.recvs, id)
			return true
		}
		return false
	}
	return true // unknown or already-completed handle
}

// Msgwait blocks until an asynchronous operation completes.
func (nx *NX) Msgwait(id ID) {
	p := nx.proc()
	p.Compute(hw.CallCost)
	for {
		if nx.Msgdone(id) {
			return
		}
		nx.flushAllCredits()
		p.WaitPred(nil, nx.wakeConds, func() bool { return true })
	}
}

// serviceRecv attempts to satisfy a posted receive.
func (nx *NX) serviceRecv(r *postedRecv) {
	if r.done {
		return
	}
	if m, ok := nx.match(r.typesel); ok {
		r.got = nx.consume(m, r.buf, r.count)
		r.done = true
		return
	}
	if sm := nx.matchSelf(r.typesel); sm != nil {
		r.got = nx.consumeSelf(sm, r.buf, r.count)
		r.done = true
	}
}

// --- Matching ---

// nextOccupied returns the first packet buffer at or after buf whose size
// word is nonzero now, or NumPkt if there is none. The scans below call it
// afresh after every readHdr, which sleeps: a message landing mid-scan is
// then seen exactly as a word-by-word scan of the size words would see it.
func (cn *conn) nextOccupied(m *mem.Memory, buf int) int {
	return buf + bits.TrailingZeros32(cn.occupied(m)>>buf|1<<(NumPkt-buf))
}

// match finds the best matching first-chunk message: lowest sequence number
// among matching types, scanning connections round-robin. Continuation and
// zero-copy data chunks are never matched directly.
func (nx *NX) match(typesel int) (candidate, bool) {
	p := nx.proc()
	var best candidate
	found := false
	for _, cn := range nx.connList {
		for buf := cn.nextOccupied(p.M.Mem, 0); buf < NumPkt; buf = cn.nextOccupied(p.M.Mem, buf+1) {
			off := pktOff(buf)
			h := nx.readHdr(cn, buf)
			if h.flags&(flagCont|flagZCData) != 0 {
				continue
			}
			if typesel != TypeAny && h.typ != typesel {
				continue
			}
			if cn.inWord(p, doneOff(off, h.size)) != uint32(h.size+1) {
				continue // still in flight
			}
			if !found || h.seq < best.h.seq || (h.seq == best.h.seq && cn.peer < best.cn.peer) {
				best = candidate{cn: cn, buf: buf, h: h}
				found = true
			}
		}
	}
	return best, found
}

// matchExists is the cheap wake predicate: it peeks descriptors without
// charging per-word costs (the real scan re-runs with costs after wake).
func (nx *NX) matchExists(typesel int) bool {
	p := nx.proc()
	for _, cn := range nx.connList {
		for occ := cn.occupied(p.M.Mem); occ != 0; occ &= occ - 1 {
			buf := bits.TrailingZeros32(occ)
			off := pktOff(buf)
			size := p.PeekWord(cn.in + kernel.VA(off))
			flags := p.PeekWord(cn.in + kernel.VA(off+12))
			if flags&(flagCont|flagZCData) != 0 {
				continue
			}
			typ := int(int32(p.PeekWord(cn.in + kernel.VA(off+4))))
			if typesel != TypeAny && typ != typesel {
				continue
			}
			if p.PeekWord(cn.in+kernel.VA(doneOff(off, int(size)-1))) == size {
				return true
			}
		}
	}
	return len(nx.loopback) > 0
}

func (nx *NX) matchSelf(typesel int) *selfMsg {
	for i, sm := range nx.loopback {
		if typesel == TypeAny || sm.typ == typesel {
			nx.loopback = append(nx.loopback[:i], nx.loopback[i+1:]...)
			return sm
		}
	}
	return nil
}

func (nx *NX) consumeSelf(sm *selfMsg, buf kernel.VA, count int) int {
	p := nx.proc()
	n := len(sm.data)
	if n > count {
		n = count
	}
	p.WriteBytes(buf, sm.data[:n])
	nx.lastCount = n
	nx.lastType = sm.typ
	nx.lastNode = nx.node
	nx.lastPid = sm.pid
	return n
}

// consume delivers a matched message into the user buffer and releases its
// packet buffer(s).
func (nx *NX) consume(m candidate, buf kernel.VA, count int) int {
	if m.h.flags&flagScout != 0 {
		return nx.zcRecv(m, buf, count)
	}
	p := nx.proc()
	// Matching bookkeeping, info updates, descriptor validation.
	p.Compute(3 * hw.CallCost)
	total := m.h.fullSize
	want := total
	if want > count {
		want = count
	}
	// First chunk.
	got := nx.copyOut(m.cn, m.buf, m.h.size, buf, want)
	nx.release(m.cn, m.buf, m.h.size)

	// Continuations for multi-buffer messages arrive in order; collect
	// chunk k for k = 1.. until the full message is in.
	received := m.h.size
	for idx := 1; received < total; idx++ {
		cm := nx.waitChunk(m.cn, flagCont, m.h.msgID, idx)
		got += nx.copyOut(m.cn, cm.buf, cm.h.size, buf+kernel.VA(got), want-got)
		nx.release(m.cn, cm.buf, cm.h.size)
		received += cm.h.size
	}
	nx.lastCount = got
	nx.lastType = m.h.typ
	nx.lastNode = m.cn.peer
	nx.lastPid = m.h.pid
	return got
}

// copyOut copies up to want bytes of a packet buffer's payload to user
// memory — the receive-side copy of the one-copy protocols.
func (nx *NX) copyOut(cn *conn, buf, size int, dst kernel.VA, want int) int {
	n := size
	if n > want {
		n = want
	}
	if n <= 0 {
		return 0
	}
	nx.proc().CopyVA(dst, cn.in+kernel.VA(pktOff(buf)+hdrSize), n)
	return n
}

// release frees a consumed packet buffer: clear its size and done words
// locally and queue a lazy credit (flushed on block or doorbell).
func (nx *NX) release(cn *conn, buf, size int) {
	p := nx.proc()
	off := pktOff(buf)
	p.WriteWord(cn.in+kernel.VA(off), 0)
	p.WriteWord(cn.in+kernel.VA(doneOff(off, size)), 0)
	cn.pendingCred = append(cn.pendingCred, buf)
	if len(cn.pendingCred) >= NumPkt/4 {
		nx.flushCredits(cn)
	}
}

// waitChunk blocks until the packet buffer holding chunk idx of message
// msgID (with the given flag) arrives on cn.
func (nx *NX) waitChunk(cn *conn, flag uint32, msgID uint32, idx int) candidate {
	p := nx.proc()
	for {
		for buf := cn.nextOccupied(p.M.Mem, 0); buf < NumPkt; buf = cn.nextOccupied(p.M.Mem, buf+1) {
			off := pktOff(buf)
			h := nx.readHdr(cn, buf)
			if h.flags&flag == 0 || h.msgID != msgID || h.fullSize != idx {
				continue
			}
			if cn.inWord(p, doneOff(off, h.size)) != uint32(h.size+1) {
				continue
			}
			return candidate{cn: cn, buf: buf, h: h}
		}
		nx.flushAllCredits()
		p.WaitPred(nil, cn.inConds, func() bool { return true })
	}
}

func (nx *NX) flushAllCredits() {
	for _, cn := range nx.connList {
		if len(cn.pendingCred) > 0 {
			nx.flushCredits(cn)
		}
	}
}

func (nx *NX) String() string {
	return fmt.Sprintf("nx(node %d/%d)", nx.node, nx.n)
}
