package nx

import (
	"fmt"

	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/vmmc"
)

// zcSend tracks one zero-copy (large-message) send through its protocol
// phases: scout sent -> reply awaited -> data transferred -> done flagged.
type zcSend struct {
	cn       *conn
	seq      uint32
	typ      int
	pid      int
	proto    Proto
	userVA   kernel.VA // live only until the user call returns
	backupVA kernel.VA // safety copy (blocking sends only)
	n        int
	fromBack bool // transfer must use the backup copy
	complete bool
}

// zcReply is a decoded reply slot.
type zcReply struct {
	exportID uint32
	byteOff  int
	mode     uint32
	max      int
}

// zcStart sends the scout and registers the transfer. The scout goes
// through the one-copy path ("using the one-copy protocol", Section 4.1)
// and carries the full size so the receiver can locate a buffer.
func (nx *NX) zcStart(cn *conn, typ int, userVA kernel.VA, n, pid int, proto Proto, backup bool) *zcSend {
	p := nx.proc()
	// Bound outstanding zero-copy transfers per connection (reply and
	// done rings are finite).
	for cn.zcOut >= MaxZC {
		nx.servicePending()
		p.WaitPred(nil, cn.inConds, func() bool { return true })
	}
	seq := cn.zcSendSeq
	cn.zcSendSeq++
	cn.zcOut++
	nx.sendChunk(cn, hdr{typ: typ, flags: flagScout, msgID: seq, fullSize: n, pid: pid}, 0, 0, ProtoAU2)
	return &zcSend{cn: cn, seq: seq, typ: typ, pid: pid, proto: proto, userVA: userVA, n: n, fromBack: backup}
}

// zcSendBlocking is the csend large-message path: send the scout, then copy
// the data into a local backup buffer while polling for the receiver's
// reply. If the reply arrives first, stop copying and transfer directly
// from user memory; if the copy finishes first, return — the transfer
// completes later from the backup, off the critical path.
func (nx *NX) zcSendBlocking(cn *conn, typ int, userVA kernel.VA, n, pid int, proto Proto) {
	p := nx.proc()
	// The backup buffer is shared per connection: finish any earlier
	// pending transfer before reusing it.
	nx.drainPending(cn)
	zs := nx.zcStart(cn, typ, userVA, n, pid, proto, false)

	if cn.backupCap < n {
		cn.backup = p.Alloc(n+8, hw.WordSize)
		cn.backupCap = n
	}
	zs.backupVA = cn.backup

	// Poll for the reply between small copy chunks: "as soon as the
	// receiver replies, the sender immediately stops copying". 512-byte
	// chunks keep the reply-detection latency near one poll interval.
	const chunk = 512
	copied := 0
	for {
		if r, ok := nx.peekReply(cn, zs.seq); ok {
			// Receiver replied: abandon the safety copy and move the
			// data straight out of user memory.
			nx.zcTransfer(zs, r, userVA)
			return
		}
		if copied >= n {
			// Safe copy complete: the application may continue. The
			// transfer itself finishes when the reply arrives, from
			// the backup buffer.
			zs.fromBack = true
			zs.userVA = 0
			nx.pendingZC = append(nx.pendingZC, zs)
			return
		}
		c := n - copied
		if c > chunk {
			c = chunk
		}
		p.CopyVA(cn.backup+kernel.VA(copied), userVA+kernel.VA(copied), c)
		copied += c
	}
}

// peekReply checks the reply slot for seq without blocking.
func (nx *NX) peekReply(cn *conn, seq uint32) (zcReply, bool) {
	p := nx.proc()
	slot := cn.in + kernel.VA(zcReplySlot(seq))
	p.P.Sleep(hw.PollCheckCost)
	if p.PeekWord(slot) != seq+1 {
		return zcReply{}, false
	}
	return zcReply{
		exportID: p.PeekWord(slot + 4),
		byteOff:  int(p.PeekWord(slot + 8)),
		mode:     p.PeekWord(slot + 12),
		max:      int(p.PeekWord(slot + 16)),
	}, true
}

// zcTransfer moves the message body into the receiver's user buffer per the
// reply, then raises the done flag. src is the (word-aligned or not) source
// buffer to read from.
func (nx *NX) zcTransfer(zs *zcSend, r zcReply, src kernel.VA) {
	p := nx.proc()
	cn := zs.cn
	n := zs.n
	if n > r.max {
		n = r.max // receiver's buffer is smaller; it asked for a prefix
	}
	switch {
	case r.mode == zcModeChunked:
		// Alignment forbade the zero-copy mapping: stream the data
		// through packet buffers as flagged chunks.
		off, idx := 0, 0
		for off < n || idx == 0 {
			c := n - off
			if c > PayloadMax {
				c = PayloadMax
			}
			nx.sendChunk(cn, hdr{typ: zs.typ, flags: flagZCData, msgID: zs.seq, fullSize: idx, pid: zs.pid},
				src+kernel.VA(off), c, ProtoAU2)
			off += c
			idx++
		}
	case zs.proto == ProtoAU1:
		// Automatic-update finish: copy from src into the AU-bound
		// shadow of the receiver's exported user buffer. One copy, no
		// alignment restriction, and the stores stream onto the wire
		// as they happen.
		zi := nx.zcImportFor(cn.peer, r.exportID, true)
		if n > 0 {
			p.CopyVA(zi.shadow+kernel.VA(r.byteOff), src, n)
		}
	default:
		// Deliberate-update finish (the true zero-copy path when src
		// is the user buffer). A misaligned source falls back to the
		// backup buffer, which is always word-aligned.
		if src%hw.WordSize != 0 {
			if !zs.fromBack {
				p.CopyVA(zs.backupVA, src, n)
				src = zs.backupVA
			}
		}
		zi := nx.zcImportFor(cn.peer, r.exportID, false)
		if n > 0 {
			nx.mustSend(zi.imp, r.byteOff, src, ceil4(n))
		}
	}
	// Done flag: control information, by automatic update, ordered after
	// the data.
	cn.shadowWriteWord(p, zcDoneSlot(zs.seq), zs.seq+1)
	cn.zcOut--
	zs.complete = true
}

// zcImportFor returns (importing on first use) the mapping for a peer's
// exported user buffer; withShadow also establishes an AU binding over it.
func (nx *NX) zcImportFor(node int, exportID uint32, withShadow bool) *zcImport {
	p := nx.proc()
	key := zcImportKey{node: node, id: exportID}
	zi, ok := nx.zcImports[key]
	if !ok {
		imp, err := nx.ep.Import(node, zcExportName(node, exportID))
		if err != nil {
			//lint:allow transitive-panic peer advertised this export in its scout reply; its disappearance means the peer died
			panic(fmt.Sprintf("nx: zc import: %v", err))
		}
		zi = &zcImport{imp: imp}
		nx.zcImports[key] = zi
	}
	if withShadow && zi.shadow == 0 {
		pages := zi.imp.Size / hw.Page
		zi.shadow = p.MapPages(pages, 0)
		if _, err := nx.ep.BindAU(zi.shadow, zi.imp, 0, pages, vmmc.AUOpts{Combine: true, Timer: true}); err != nil {
			//lint:allow transitive-panic binding freshly mapped pages to a live import cannot fail unless the peer died
			panic(fmt.Sprintf("nx: zc bind: %v", err))
		}
	}
	return zi
}

// tryFinishZC advances one pending transfer if its reply has arrived.
func (nx *NX) tryFinishZC(zs *zcSend) {
	if zs.complete {
		return
	}
	if r, ok := nx.peekReply(zs.cn, zs.seq); ok {
		src := zs.userVA
		if zs.fromBack {
			src = zs.backupVA
		}
		nx.zcTransfer(zs, r, src)
	}
}

// servicePending advances every parked zero-copy send whose reply has come
// in. Called from every library entry point, as the real library services
// its protocol state whenever it gets control.
func (nx *NX) servicePending() {
	if len(nx.pendingZC) == 0 {
		return
	}
	rest := nx.pendingZC[:0]
	for _, zs := range nx.pendingZC {
		nx.tryFinishZC(zs)
		if !zs.complete {
			rest = append(rest, zs)
		}
	}
	nx.pendingZC = rest
}

// drainPending blocks until every pending transfer on cn completes (the
// per-connection backup buffer is about to be reused).
func (nx *NX) drainPending(cn *conn) {
	p := nx.proc()
	for {
		nx.servicePending()
		busy := false
		for _, zs := range nx.pendingZC {
			if zs.cn == cn {
				busy = true
			}
		}
		if !busy {
			return
		}
		p.WaitPred(nil, cn.inConds, func() bool { return true })
	}
}

// pendingActionable reports whether any pending transfer could advance
// (wake predicate).
func (nx *NX) pendingActionable() bool {
	p := nx.proc()
	for _, zs := range nx.pendingZC {
		slot := zs.cn.in + kernel.VA(zcReplySlot(zs.seq))
		if p.PeekWord(slot) == zs.seq+1 {
			return true
		}
	}
	return false
}

// --- Receiver side ---

// zcRecv handles a matched scout: export the user buffer region, reply with
// its buffer ID, and wait for the sender's done flag (or chunked data).
func (nx *NX) zcRecv(m candidate, buf kernel.VA, count int) int {
	p := nx.proc()
	cn := m.cn
	total := m.h.fullSize
	seq := m.h.msgID
	nx.release(cn, m.buf, m.h.size) // scout buffer consumed

	want := total
	if want > count {
		want = count
	}

	aligned := buf%hw.WordSize == 0
	if aligned && want > 0 {
		ze := nx.zcExportFor(buf, want)
		byteOff := int(buf - ze.base)
		// Reply: stamp | exportID | byteOff | mode | max — control
		// information via automatic update. The stamp is written
		// first in a consecutive run, so the slot lands atomically in
		// one packet.
		slot := zcReplySlot(seq)
		reply := make([]byte, 20)
		putU32 := func(off int, v uint32) {
			reply[off], reply[off+1], reply[off+2], reply[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		putU32(0, seq+1)
		putU32(4, ze.id)
		putU32(8, uint32(byteOff))
		putU32(12, zcModeDirect)
		putU32(16, uint32(want))
		cn.shadowWrite(p, slot, reply)

		// Wait for the data-in-place flag; the data lands directly in
		// the user buffer — no receive-side copy.
		p.WaitWord(cn.in+kernel.VA(zcDoneSlot(seq)), func(v uint32) bool { return v == seq+1 })
	} else {
		// Misaligned user buffer: no zero-copy mapping allowed; ask
		// for chunked delivery through the packet buffers.
		slot := zcReplySlot(seq)
		reply := make([]byte, 20)
		putU32 := func(off int, v uint32) {
			reply[off], reply[off+1], reply[off+2], reply[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		putU32(0, seq+1)
		putU32(12, zcModeChunked)
		putU32(16, uint32(want))
		cn.shadowWrite(p, slot, reply)

		got, idx := 0, 0
		for got < want || idx == 0 {
			cm := nx.waitChunk(cn, flagZCData, seq, idx)
			got += nx.copyOut(cn, cm.buf, cm.h.size, buf+kernel.VA(got), want-got)
			nx.release(cn, cm.buf, cm.h.size)
			idx++
		}
		p.WaitWord(cn.in+kernel.VA(zcDoneSlot(seq)), func(v uint32) bool { return v == seq+1 })
	}

	nx.lastCount = want
	nx.lastType = m.h.typ
	nx.lastNode = cn.peer
	nx.lastPid = m.h.pid
	return want
}

// zcExportFor returns (exporting on first use) the receive mapping covering
// [buf, buf+n). Exports are cached by page range and reused across calls —
// "if it hasn't done so already, the sender imports that buffer" works
// because the receiver names ranges stably.
func (nx *NX) zcExportFor(buf kernel.VA, n int) *zcExport {
	base := pageFloor(buf)
	pages := int((buf + kernel.VA(n) - base + hw.Page - 1) / hw.Page)
	key := [2]kernel.VA{base, kernel.VA(pages)}
	if ze, ok := nx.zcExports[key]; ok {
		return ze
	}
	nx.nextExportID++
	id := nx.nextExportID
	exp, err := nx.ep.Export(base, pages, vmmc.ExportOpts{Name: zcExportName(nx.node, id)})
	if err != nil {
		//lint:allow transitive-panic exporting pinned, mapped user pages fails only on resource exhaustion; crecv has no error channel
		panic(fmt.Sprintf("nx: zc export: %v", err))
	}
	ze := &zcExport{exp: exp, id: id, base: base}
	nx.zcExports[key] = ze
	return ze
}
