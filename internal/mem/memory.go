// Package mem models a node's physical main memory: a flat, byte-addressed
// array divided into pages, with two hooks the rest of the simulation needs:
//
//   - write watchers, per page, so simulated processes can "poll" a flag
//     word without time-quantized spinning — the memory wakes them exactly
//     when the watched page changes (the NIC's incoming DMA or a local
//     store); and
//   - a snoop hook, so the SHRIMP network interface can observe CPU stores
//     on the memory bus (the automatic-update mechanism).
//
// Timing is charged by the callers (CPU model, DMA engines); this package
// only moves bytes and fires hooks.
//
// DRAM is demand-allocated page by page: a page that has never been written
// reads as zeros from a shared page and costs no memory. A simulated node
// with 40MB of DRAM therefore costs only what the workload actually touches,
// which is what makes building dozens of clusters per figure sweep cheap in
// wall-clock terms.
package mem

import (
	"fmt"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// PA is a physical byte address.
type PA uint64

// PFN is a physical page frame number.
type PFN uint32

// PageOf returns the frame containing pa.
func PageOf(pa PA) PFN { return PFN(pa / hw.Page) }

// Base returns the first address of frame f.
func (f PFN) Base() PA { return PA(f) * hw.Page }

// SnoopFunc observes a store of data at pa as it appears on the memory bus.
type SnoopFunc func(pa PA, data []byte)

// zeroPage backs every never-written frame. Read-only by contract: all
// accessors copy out of it and no writer ever targets it.
var zeroPage = make([]byte, hw.Page)

// pageChunkShift sizes the second level of the frame table (256 frames,
// 1MB of simulated DRAM per chunk).
const pageChunkShift = 8

type pageChunk [1 << pageChunkShift][]byte

// watch is one frame's watcher state: the cond woken by writes to the
// frame (created on first wait) and the frame's write generation.
type watch struct {
	cond *sim.Cond
	gen  uint64
}

// watchChunk mirrors one pageChunk with per-frame watcher state.
type watchChunk [1 << pageChunkShift]watch

// Memory is one node's DRAM.
type Memory struct {
	eng   *sim.Engine
	size  int
	npage int
	// frames is a two-level table of per-frame backing slices, filled in
	// on first write; a nil chunk or nil frame still reads as zeros. The
	// root is a few dozen pointers, so constructing a 40MB memory costs
	// nearly nothing.
	frames []*pageChunk
	// seals, when non-nil, carries per-frame copy-on-write bits: a sealed
	// frame's backing slice is shared with a snapshot image or a cloned
	// Memory and must be copied out before the first local write. Nil until
	// Seal/Clone/InstallFrames, so ordinary worlds never pay for the check
	// beyond one nil test. See cow.go.
	seals []*sealChunk
	// watches mirrors frames with per-frame watcher conds and write
	// generations. A chunk is built when a frame in it is first watched
	// or its generation first read, so writes to unwatched chunks skip
	// the bookkeeping; a generation counts every write landing once its
	// chunk exists, which is every write any reader can observe.
	watches []*watchChunk

	// Snoop, when set, sees every CPU store (not DMA writes — the real
	// snoop logic sits on the Xpress bus and watches processor writes;
	// incoming EISA DMA does not re-enter the outgoing path).
	snoop SnoopFunc

	// snoopPages marks frames whose stores are interesting to the snoop
	// (OPT-bound pages); stores elsewhere skip the hook for speed.
	snoopPages map[PFN]bool
}

// New returns a memory of size bytes (rounded up to a whole page). No DRAM
// is allocated up front; frames materialize on first write.
func New(eng *sim.Engine, size int) *Memory {
	pages := (size + hw.Page - 1) / hw.Page
	return &Memory{
		eng:        eng,
		size:       pages * hw.Page,
		npage:      pages,
		frames:     make([]*pageChunk, (pages+1<<pageChunkShift-1)>>pageChunkShift),
		watches:    make([]*watchChunk, (pages+1<<pageChunkShift-1)>>pageChunkShift),
		snoopPages: make(map[PFN]bool),
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// Pages returns the number of page frames.
func (m *Memory) Pages() int { return m.npage }

func (m *Memory) check(pa PA, n int) {
	// Overflow-safe: a huge pa must not wrap the sum past the size check.
	if n < 0 || uint64(pa) > uint64(m.size) || uint64(n) > uint64(m.size)-uint64(pa) {
		panic(fmt.Sprintf("mem: access out of range: pa=%#x n=%d size=%d", pa, n, m.size)) //lint:allow transitive-panic simulated bus error: physical addresses come from the kernel's own page tables
	}
}

// page returns the frame's backing bytes for reading (the shared zero page
// if it was never written).
func (m *Memory) page(f PFN) []byte {
	if c := m.frames[f>>pageChunkShift]; c != nil {
		if p := c[f&(1<<pageChunkShift-1)]; p != nil {
			return p
		}
	}
	return zeroPage
}

// pageW returns the frame's backing bytes for writing, materializing it.
// A sealed (copy-on-write shared) frame is copied out privately first, so
// snapshot images and clones never observe local writes.
func (m *Memory) pageW(f PFN) []byte {
	c := m.frames[f>>pageChunkShift]
	if c == nil {
		c = new(pageChunk)
		m.frames[f>>pageChunkShift] = c
	}
	p := c[f&(1<<pageChunkShift-1)]
	if p == nil {
		p = make([]byte, hw.Page)
		c[f&(1<<pageChunkShift-1)] = p
		return p
	}
	if m.seals != nil {
		if sc := m.seals[f>>pageChunkShift]; sc != nil && sc[f&(1<<pageChunkShift-1)] {
			np := make([]byte, hw.Page)
			copy(np, p)
			c[f&(1<<pageChunkShift-1)] = np
			sc[f&(1<<pageChunkShift-1)] = false
			return np
		}
	}
	return p
}

// Read copies n bytes at pa into a fresh slice. The slice is the caller's
// own: it never aliases simulated RAM, so mutating it cannot corrupt memory
// contents.
func (m *Memory) Read(pa PA, n int) []byte {
	m.check(pa, n)
	out := make([]byte, n)
	m.ReadInto(pa, out)
	return out
}

// ReadInto copies len(b) bytes at pa into b. b never aliases simulated RAM.
func (m *Memory) ReadInto(pa PA, b []byte) {
	m.check(pa, len(b))
	off := 0
	for off < len(b) {
		a := pa + PA(off)
		po := int(a % hw.Page)
		frag := len(b) - off
		if frag > hw.Page-po {
			frag = hw.Page - po
		}
		copy(b[off:off+frag], m.page(PageOf(a))[po:])
		off += frag
	}
}

// write stores b at pa, materializing frames as needed.
func (m *Memory) write(pa PA, b []byte) {
	off := 0
	for off < len(b) {
		a := pa + PA(off)
		po := int(a % hw.Page)
		frag := len(b) - off
		if frag > hw.Page-po {
			frag = hw.Page - po
		}
		copy(m.pageW(PageOf(a))[po:], b[off:off+frag])
		off += frag
	}
}

// WriteDMA stores b at pa as a DMA master would: watchers fire, but the
// CPU-store snoop hook does not (DMA writes are not snooped back into the
// outgoing path; the caches only invalidate).
func (m *Memory) WriteDMA(pa PA, b []byte) {
	m.check(pa, len(b))
	m.write(pa, b)
	m.wake(pa, len(b))
}

// WriteNoSnoop stores b at pa with watcher wakeups but without presenting
// the store to the snoop hook. The kernel's AU store path uses it together
// with a delayed PresentToSnoop to model the cache-to-bus visibility delay.
func (m *Memory) WriteNoSnoop(pa PA, b []byte) {
	m.check(pa, len(b))
	m.write(pa, b)
	m.wake(pa, len(b))
}

// PresentToSnoop offers previously-captured store values to the snoop hook
// without touching memory contents (they were already written). Fragments
// are presented page-locally, as the bus would.
func (m *Memory) PresentToSnoop(pa PA, b []byte) {
	if m.snoop == nil {
		return
	}
	off := 0
	for off < len(b) {
		a := pa + PA(off)
		room := hw.Page - int(a%hw.Page)
		frag := len(b) - off
		if frag > room {
			frag = room
		}
		if m.snoopPages[PageOf(a)] {
			m.snoop(a, b[off:off+frag])
		}
		off += frag
	}
}

// WriteCPU stores b at pa as the processor would: watchers fire and, if the
// page is snooped, the store is presented to the snoop logic. The snoop is
// handed page-local fragments of b itself — the store values as they appear
// on the bus — never a slice of the memory's own backing array, so a snoop
// implementation cannot mutate simulated RAM through its argument.
func (m *Memory) WriteCPU(pa PA, b []byte) {
	m.check(pa, len(b))
	m.write(pa, b)
	if m.snoop != nil {
		// A store burst may cross a page boundary; present per-page
		// fragments so the snoop sees page-local addresses.
		off := 0
		for off < len(b) {
			a := pa + PA(off)
			room := hw.Page - int(a%hw.Page)
			frag := len(b) - off
			if frag > room {
				frag = room
			}
			if m.snoopPages[PageOf(a)] {
				m.snoop(a, b[off:off+frag])
			}
			off += frag
		}
	}
	m.wake(pa, len(b))
}

// wake bumps the write generation of every frame that [pa, pa+n) touches
// and wakes its watchers.
func (m *Memory) wake(pa PA, n int) {
	first, last := PageOf(pa), PageOf(pa+PA(n-1))
	for f := first; f <= last; f++ {
		if wc := m.watches[f>>pageChunkShift]; wc != nil {
			w := &wc[f&(1<<pageChunkShift-1)]
			w.gen++
			if w.cond != nil {
				w.cond.Broadcast()
			}
		}
	}
}

// watch returns frame f's watcher state, building its chunk on first use.
func (m *Memory) watch(f PFN) *watch {
	wc := m.watches[f>>pageChunkShift]
	if wc == nil {
		wc = new(watchChunk)
		m.watches[f>>pageChunkShift] = wc
	}
	return &wc[f&(1<<pageChunkShift-1)]
}

// WriteGen returns frame f's write generation. It changes whenever the
// frame's contents may have changed — every write and every InstallFrames
// over it — so a reader can cache something it derived from the frame
// and re-derive only when the generation moves.
func (m *Memory) WriteGen(f PFN) uint64 { return m.watch(f).gen }

// SetSnoop installs the bus snoop hook (the SHRIMP NIC's snoop logic).
func (m *Memory) SetSnoop(fn SnoopFunc) { m.snoop = fn }

// SetSnooped marks or unmarks a frame as interesting to the snoop logic.
func (m *Memory) SetSnooped(f PFN, on bool) {
	if on {
		m.snoopPages[f] = true
	} else {
		delete(m.snoopPages, f)
	}
}

// WaitChange blocks p until any write lands in the page containing pa.
// Callers re-check their predicate after waking, as with any condition
// variable.
func (m *Memory) WaitChange(p *sim.Proc, pa PA) {
	m.cond(PageOf(pa)).Wait(p)
}

// WaitChangeTimeout is WaitChange with a deadline; reports true on timeout.
func (m *Memory) WaitChangeTimeout(p *sim.Proc, pa PA, d time.Duration) bool {
	return m.cond(PageOf(pa)).WaitTimeout(p, d)
}

// PageCond returns the watcher condition variable for frame f, for callers
// composing multi-source waits.
func (m *Memory) PageCond(f PFN) *sim.Cond { return m.cond(f) }

func (m *Memory) cond(f PFN) *sim.Cond {
	w := m.watch(f)
	if w.cond == nil {
		w.cond = sim.NewCond(m.eng)
	}
	return w.cond
}

// U32 reads a little-endian 32-bit word at pa.
func (m *Memory) U32(pa PA) uint32 {
	m.check(pa, 4)
	if po := int(pa % hw.Page); po <= hw.Page-4 {
		b := m.page(PageOf(pa))[po:]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	var b [4]byte
	m.ReadInto(pa, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// PutU32DMA stores a little-endian 32-bit word at pa via the DMA path.
func (m *Memory) PutU32DMA(pa PA, v uint32) {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	m.WriteDMA(pa, b[:])
}

// PutU32CPU stores a little-endian 32-bit word at pa via the CPU path.
func (m *Memory) PutU32CPU(pa PA, v uint32) {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	m.WriteCPU(pa, b[:])
}
