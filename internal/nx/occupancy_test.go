package nx

import (
	"testing"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
)

// matchWordByWord is match without the occupancy mask: it reads each
// buffer's size word at the moment the scan reaches it. It is the
// reference the masked scan must agree with exactly.
func matchWordByWord(nx *NX, typesel int) (candidate, bool) {
	p := nx.proc()
	var best candidate
	found := false
	for _, cn := range nx.connList {
		for buf := 0; buf < NumPkt; buf++ {
			off := pktOff(buf)
			if cn.inWord(p, off) == 0 {
				continue
			}
			h := nx.readHdr(cn, buf)
			if h.flags&(flagCont|flagZCData) != 0 {
				continue
			}
			if typesel != TypeAny && h.typ != typesel {
				continue
			}
			if cn.inWord(p, doneOff(off, h.size)) != uint32(h.size+1) {
				continue
			}
			if !found || h.seq < best.h.seq || (h.seq == best.h.seq && cn.peer < best.cn.peer) {
				best = candidate{cn: cn, buf: buf, h: h}
				found = true
			}
		}
	}
	return best, found
}

// scanResult is what one receive scan observed, and what it cost.
type scanResult struct {
	buf     int
	h       hdr
	found   bool
	elapsed time.Duration
}

// scanWithArrivals builds a receiver with one connection whose buffers 0
// and 3 hold complete messages of a type nobody asks for, then runs scan
// while two messages land by DMA in the middle of it: one in buffer 5
// (still ahead of the scan) during the header read of buffer 0, and one
// with a lower sequence number in buffer 1 (already behind it) during the
// header read of buffer 3.
func scanWithArrivals(t *testing.T, scan func(*NX, int) (candidate, bool)) scanResult {
	t.Helper()
	c := cluster.Default()
	defer c.Shutdown()
	var res scanResult
	c.Spawn(0, "recv", func(p *kernel.Process) {
		x := New(c, p, 0, 2, Config{Lazy: true})
		cn := x.exportHalf(1)
		put := func(buf, typ int, seq uint32) {
			const n = 4
			h := hdr{size: n, typ: typ, seq: seq}
			p.Poke(cn.in+kernel.VA(pktOff(buf)), h.encode())
			p.Poke(cn.in+kernel.VA(doneOff(pktOff(buf), n)), []byte{n + 1, 0, 0, 0})
		}
		put(0, 9, 20)
		put(3, 9, 21)
		eng := p.M.Eng
		eng.Schedule(hw.WordTouchCost/2, func() { put(5, 7, 10) })
		eng.Schedule(hw.WordTouchCost*3/2, func() { put(1, 7, 1) })
		t0 := p.P.Now()
		m, ok := scan(x, 7)
		res = scanResult{buf: m.buf, h: m.h, found: ok, elapsed: p.P.Now().Sub(t0)}
	})
	c.Run()
	return res
}

// TestMatchSeesMidScanArrival: readHdr sleeps, so a DMA can land while
// match is part-way through a connection's buffers. The occupancy mask
// must be re-validated after every yield so the masked scan matches
// exactly what a word-by-word scan of the size words matches, at the same
// virtual-time cost.
func TestMatchSeesMidScanArrival(t *testing.T) {
	got := scanWithArrivals(t, (*NX).match)
	want := scanWithArrivals(t, matchWordByWord)
	if got != want {
		t.Fatalf("masked scan %+v, word-by-word scan %+v", got, want)
	}
	if !got.found || got.buf != 5 || got.h.seq != 10 {
		t.Fatalf("scan matched %+v, want the buffer-5 arrival (seq 10)", got)
	}
}
