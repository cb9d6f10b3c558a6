// Package kernel models the per-node operating system of the SHRIMP
// prototype: a Linux-like kernel on each Pentium node providing processes,
// virtual address spaces with per-page attributes (the paper relies on
// per-virtual-page write-through/uncached control and on page pinning for
// receive buffers), interrupt dispatch, and UNIX-style signals (the paper's
// notification mechanism is implemented on signals).
//
// The kernel is deliberately thin: SHRIMP's whole point is that the OS is
// *not* on the communication fast path. It appears here for process setup,
// import/export mapping management (via the daemon), and the interrupt path.
package kernel

import (
	"fmt"
	"slices"
	"time"

	"shrimp/internal/hw"
	"shrimp/internal/mem"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

// VA is a virtual byte address in some process's address space.
type VA uint64

// VPN is a virtual page number.
type VPN uint32

// PageOf returns the virtual page containing va.
func PageOf(va VA) VPN { return VPN(va / hw.Page) }

// PTE flags.
type PTEFlags uint8

const (
	// FlagWriteThrough marks the page cached write-through — required for
	// automatic-update bound pages so stores appear on the bus.
	FlagWriteThrough PTEFlags = 1 << iota
	// FlagUncached disables caching entirely (paper Section 3.4 measures
	// AU latency both ways).
	FlagUncached
	// FlagPinned prevents the frame from being reclaimed; set on exported
	// receive buffers by the SHRIMP daemon.
	FlagPinned
)

// PTE maps a virtual page to a physical frame.
type PTE struct {
	Frame mem.PFN
	Flags PTEFlags
}

// Prot is a page's access-protection level. The zero value is full access,
// so pages are read-write unless a user-level memory manager (the SVM layer)
// explicitly restricts them and ordinary code never pays for protection.
type Prot uint8

const (
	// ProtRW allows loads and stores (the default for mapped pages).
	ProtRW Prot = iota
	// ProtRead allows loads; stores fault.
	ProtRead
	// ProtNone faults on any access.
	ProtNone
)

func (pr Prot) String() string {
	switch pr {
	case ProtRW:
		return "rw"
	case ProtRead:
		return "r"
	case ProtNone:
		return "none"
	}
	return "?"
}

// PageFault describes one protection violation being upcalled to the
// process's fault handler.
type PageFault struct {
	VA    VA   // faulting address
	Write bool // store (true) or load (false)
	Prot  Prot // protection in force when the access faulted
	Depth int  // 1 for a top-level fault, >1 when nested inside a handler
}

// Machine is one node's kernel state: CPU, memory, interrupt vectors.
type Machine struct {
	ID  int
	Eng *sim.Engine
	Mem *mem.Memory

	// CPU serializes compute between processes on the node (one Pentium
	// per node). Blocking waits do not hold the CPU.
	CPU *sim.Server

	// MemBus models the Xpress memory bus: bulk CPU copies and the NIC's
	// DMA engines all reserve it, so they serialize — the behaviour that
	// caps the 2-copy protocols in the paper's Figure 3.
	MemBus *sim.Server

	// Frame allocator: fresh frames come from the ascending nextFrame
	// cursor (frame 0 stays reserved); freed frames are reused LIFO from
	// freedFrames first. Equivalent to popping a prebuilt [max..1] stack,
	// without materializing ten thousand entries per node up front.
	freedFrames []mem.PFN
	nextFrame   mem.PFN
	nextPID     int

	// segPool recycles the AU store-capture segments (writeAUFragment):
	// each segment lives only until its delayed PresentToSnoop runs, so a
	// small free list absorbs the entire per-store allocation churn.
	segPool [][]byte
	irq     map[int]func(data any)
	procs   []*Process // every process spawned, for Crash
	dead    bool       // node crashed: interrupts are dropped

	// IRQRaised counts interrupts delivered to this node's CPU — the
	// libraries' interrupt-avoidance claims are tested against it.
	IRQRaised int64

	// Trace, when non-nil, collects observability data for this node's
	// whole stack; set by cluster.New, reached by the NIC and libraries
	// through their Machine/Process references. TraceNode is the node's
	// precomputed track prefix ("node3"), so instrumentation sites derive
	// track names without per-event formatting.
	Trace     *trace.Collector
	TraceNode string
}

// NewMachine creates a node kernel over memBytes of DRAM. The first few
// frames are reserved (frame 0 stays unmapped to catch null transfers).
func NewMachine(id int, eng *sim.Engine, memBytes int) *Machine {
	m := &Machine{
		ID:        id,
		Eng:       eng,
		Mem:       mem.New(eng, memBytes),
		CPU:       sim.NewServer(eng),
		MemBus:    sim.NewServer(eng),
		irq:       make(map[int]func(any)),
		TraceNode: fmt.Sprintf("node%d", id),
		nextFrame: 1,
	}
	return m
}

// AllocFrame takes a free physical frame: the most recently freed one if
// any, else the next never-used frame.
func (m *Machine) AllocFrame() mem.PFN {
	if n := len(m.freedFrames); n > 0 {
		f := m.freedFrames[n-1]
		m.freedFrames = m.freedFrames[:n-1]
		return f
	}
	if int(m.nextFrame) >= m.Mem.Pages() {
		panic(fmt.Sprintf("kernel: node %d out of physical memory", m.ID)) //lint:allow transitive-panic simulated machine out of RAM: a configuration error, halting beats silently wrong figures
	}
	f := m.nextFrame
	m.nextFrame++
	return f
}

// FreeFrame returns a frame to the allocator.
func (m *Machine) FreeFrame(f mem.PFN) { m.freedFrames = append(m.freedFrames, f) }

// FreeFrames reports how many physical frames remain allocatable.
func (m *Machine) FreeFrames() int {
	return len(m.freedFrames) + m.Mem.Pages() - int(m.nextFrame)
}

// RegisterIRQ installs a handler for an interrupt vector (the NIC raises
// these). The handler runs in event context after InterruptCost.
func (m *Machine) RegisterIRQ(vector int, fn func(data any)) { m.irq[vector] = fn }

// RaiseIRQ dispatches an interrupt to the node CPU. A crashed machine
// drops interrupts on the floor.
func (m *Machine) RaiseIRQ(vector int, data any) {
	if m.dead {
		return
	}
	fn, ok := m.irq[vector]
	if !ok {
		//lint:allow transitive-panic wiring bug: every vector is registered at machine construction
		panic(fmt.Sprintf("kernel: node %d spurious interrupt %d", m.ID, vector))
	}
	m.IRQRaised++
	if m.Trace != nil {
		m.Trace.Count(m.TraceNode+"/kernel", "irq", 1)
	}
	m.Eng.Post(hw.InterruptCost, func() { fn(data) })
}

// Process is a user process on a node.
type Process struct {
	PID  int
	Name string
	M    *Machine
	P    *sim.Proc

	// pt is the page table, indexed by VPN. VAs are bump-allocated from
	// 0x10000 and never reused, so the slice stays dense; a zero Frame
	// (frame 0 is never allocated) marks an unmapped page.
	pt     []PTE
	nextVA VA // bump allocator for mappings

	heapVA   VA // current heap fill pointer
	heapEnd  VA
	heapWT   bool // heap pages write-through?
	sigQueue []Signal
	sigCond  *sim.Cond
	handlers map[int]func(*Process, Signal)
	blocked  bool // signals blocked (queued, not delivered)

	// auPages marks the pages with an automatic-update binding (set by the
	// VMMC layer through SetAUPage). WriteBytes consults it to charge
	// stores to those pages at the snooped write-through rate and route
	// them through the delayed snoop presentation.
	auPages map[VPN]bool

	// prot holds per-page protection overrides; absent pages are ProtRW,
	// so the map stays empty (and access checks free) unless a user-level
	// memory manager is active.
	prot       map[VPN]Prot
	faultFn    func(*Process, PageFault)
	faultDepth int

	// PageFaults counts protection-violation upcalls delivered to this
	// process; the SVM coherence accounting reads it.
	PageFaults int64

	exited bool
}

// Signal is a queued software signal (the substrate for VMMC notifications).
type Signal struct {
	Num  int
	Data any
}

// Spawn starts a process on the machine. body runs in a fresh proc context.
func (m *Machine) Spawn(name string, body func(p *Process)) *Process {
	m.nextPID++
	pr := &Process{
		PID:      m.nextPID,
		Name:     name,
		M:        m,
		nextVA:   0x10000,
		handlers: make(map[int]func(*Process, Signal)),
		auPages:  make(map[VPN]bool),
		sigCond:  sim.NewCond(m.Eng),
	}
	pr.P = m.Eng.Spawn(fmt.Sprintf("n%d/%s", m.ID, name), func(sp *sim.Proc) {
		body(pr)
		pr.exited = true
	})
	m.procs = append(m.procs, pr)
	return pr
}

// Crash kills the node: every process is unwound at its next scheduling
// point and interrupts are dropped from now on. Must be called from event
// context or from a proc on a different node. The machine's memory and
// device state remain readable (for post-mortem inspection) but nothing
// on the node will ever run again; restarting a node means building a
// fresh Machine.
func (m *Machine) Crash() {
	if m.dead {
		return
	}
	m.dead = true
	for _, pr := range m.procs {
		pr.P.Kill()
		pr.exited = true
	}
}

// Dead reports whether the machine has crashed.
func (m *Machine) Dead() bool { return m.dead }

// --- Address space management ---

// MapPages allocates n fresh frames and maps them contiguously, returning
// the base VA (page-aligned).
func (p *Process) MapPages(n int, flags PTEFlags) VA {
	base := p.nextVA
	if off := base % hw.Page; off != 0 {
		base += VA(hw.Page - off)
	}
	p.nextVA = base + VA(n*hw.Page)
	p.pt = slices.Grow(p.pt, int(PageOf(p.nextVA))-len(p.pt))[:PageOf(p.nextVA)]
	for i := 0; i < n; i++ {
		p.pt[PageOf(base)+VPN(i)] = PTE{Frame: p.M.AllocFrame(), Flags: flags}
	}
	return base
}

// pte returns the page-table entry for vpn and whether the page is mapped.
func (p *Process) pte(vpn VPN) (PTE, bool) {
	if int(vpn) >= len(p.pt) {
		return PTE{}, false
	}
	pte := p.pt[vpn]
	return pte, pte.Frame != 0
}

// UnmapPages removes n pages at base and frees their frames.
func (p *Process) UnmapPages(base VA, n int) {
	if base%hw.Page != 0 {
		panic("kernel: unmap of unaligned base")
	}
	for i := 0; i < n; i++ {
		vpn := PageOf(base) + VPN(i)
		pte, ok := p.pte(vpn)
		if !ok {
			panic(fmt.Sprintf("kernel: unmap of unmapped page %#x", base))
		}
		p.M.FreeFrame(pte.Frame)
		p.pt[vpn] = PTE{}
	}
}

// Alloc returns a VA for n bytes with the given alignment (1 = byte).
// Backing pages are ordinary cached pages, mapped on demand. This is the
// process "heap" used for user buffers.
func (p *Process) Alloc(n, align int) VA {
	if align <= 0 {
		align = 1
	}
	if p.heapVA == 0 {
		p.heapVA = p.MapPages(1, 0)
		p.heapEnd = p.heapVA + hw.Page
	}
	va := p.heapVA
	if off := int(va) % align; off != 0 {
		va += VA(align - off)
	}
	for va+VA(n) > p.heapEnd {
		// Extend the heap; MapPages is contiguous because nextVA only
		// moves here during heap growth... unless another mapping
		// intervened, in which case start a fresh run.
		next := p.MapPages(1, 0)
		if next != p.heapEnd {
			va = next
			if off := int(va) % align; off != 0 {
				va += VA(align - off)
			}
			p.heapEnd = next + hw.Page
			for va+VA(n) > p.heapEnd {
				ext := p.MapPages(1, 0)
				if ext != p.heapEnd {
					panic("kernel: heap extension not contiguous") //lint:allow transitive-panic allocator invariant; MapPages grows the heap monotonically
				}
				p.heapEnd += hw.Page
			}
			break
		}
		p.heapEnd += hw.Page
	}
	p.heapVA = va + VA(n)
	return va
}

// Translate resolves a VA to a physical address.
func (p *Process) Translate(va VA) (mem.PA, error) {
	pte, ok := p.pte(PageOf(va))
	if !ok {
		return 0, fmt.Errorf("page fault: %s va %#x unmapped", p.Name, va)
	}
	return pte.Frame.Base() + mem.PA(va%hw.Page), nil
}

// PTEOf returns the page-table entry for va's page.
func (p *Process) PTEOf(va VA) (PTE, bool) { return p.pte(PageOf(va)) }

// SetFlags updates the flags on a mapped page (e.g. the daemon marking a
// page write-through before creating an AU binding).
func (p *Process) SetFlags(vpn VPN, flags PTEFlags) {
	if _, ok := p.pte(vpn); !ok {
		panic("kernel: SetFlags on unmapped page") //lint:allow transitive-panic kernel invariant: callers validate the mapping first (daemon BindAU checks PTEOf)
	}
	p.pt[vpn].Flags = flags
}

// --- Per-page protection and the user-level fault upcall ---
//
// The paper's follow-on SVM work depends on user-level page management:
// a protocol library restricts pages with Mprotect, and the kernel upcalls
// protection violations into a user handler, then retries the faulting
// access — the software analogue of the NIC's freeze-with-retry receive
// path (hold the offending operation, let software fix the mapping, retry).
// Only the costed access paths (ReadBytes/WriteBytes/ReadWord/WriteWord/
// CopyVA sources) check protection; Peek/Poke/WaitWord are simulation
// bookkeeping and bypass it, like a debugger reading through /proc.

// maxFaultRetries bounds how often one access may fault without the
// handler changing the outcome before the kernel declares the process
// wedged — a real kernel would kill it with SIGSEGV storming.
const maxFaultRetries = 100

// Mprotect sets the protection of n pages starting at the page containing
// base. Pages must be mapped. Charged as one protection-change syscall.
func (p *Process) Mprotect(base VA, n int, pr Prot) {
	if p.prot == nil {
		p.prot = make(map[VPN]Prot)
	}
	for i := 0; i < n; i++ {
		vpn := PageOf(base) + VPN(i)
		if _, ok := p.pte(vpn); !ok {
			panic(fmt.Sprintf("kernel: %s mprotect of unmapped page va %#x", p.Name, base)) //lint:allow transitive-panic mprotect of an unmapped page is a simulated segfault: a program bug, not a runtime condition
		}
		if pr == ProtRW {
			delete(p.prot, vpn)
		} else {
			p.prot[vpn] = pr
		}
	}
	p.Compute(hw.MprotectCost)
}

// ProtOf returns the protection of va's page.
func (p *Process) ProtOf(va VA) Prot { return p.prot[PageOf(va)] }

// OnPageFault installs the process's protection-fault handler. The handler
// runs in process context (it may sleep, send messages, and call Mprotect);
// when it returns, the faulting access retries. There is one handler per
// process — a library layering over another should save and chain the
// previous handler (see PageFaultHandler).
func (p *Process) OnPageFault(fn func(*Process, PageFault)) { p.faultFn = fn }

// PageFaultHandler returns the currently installed fault handler (nil if
// none), so stacked memory managers can chain.
func (p *Process) PageFaultHandler() func(*Process, PageFault) { return p.faultFn }

// checkAccess enforces page protection for one access, upcalling the fault
// handler and retrying until the access is permitted.
func (p *Process) checkAccess(va VA, write bool) {
	vpn := PageOf(va)
	for tries := 0; ; tries++ {
		pr := p.prot[vpn]
		if pr == ProtRW || (pr == ProtRead && !write) {
			return
		}
		if p.faultFn == nil {
			panic(fmt.Sprintf("kernel: %s protection fault va %#x (write=%v prot=%v), no fault handler", p.Name, va, write, pr)) //lint:allow transitive-panic unhandled protection fault is a simulated segfault; SVM installs the handler
		}
		if tries == maxFaultRetries {
			panic(fmt.Sprintf("kernel: %s fault handler made no progress on va %#x after %d retries", p.Name, va, tries)) //lint:allow transitive-panic livelocked fault handler is a coherence-protocol bug; halting beats spinning forever
		}
		p.PageFaults++
		if p.M.Trace != nil {
			p.M.Trace.Count(p.M.TraceNode+"/kernel", "pagefault", 1)
		}
		p.faultDepth++
		p.Compute(hw.PageFaultUpcall)
		p.faultFn(p, PageFault{VA: va, Write: write, Prot: pr, Depth: p.faultDepth})
		p.faultDepth--
	}
}

// checkRange runs the access check across every page the range touches.
func (p *Process) checkRange(va VA, n int, write bool) {
	for off := 0; off < n; {
		p.checkAccess(va+VA(off), write)
		off += hw.Page - int((va+VA(off))%hw.Page)
	}
}

func (p *Process) mustPA(va VA) mem.PA {
	pa, err := p.Translate(va)
	if err != nil {
		panic(err) //lint:allow transitive-panic translation of an unmapped va is a simulated segfault: a program bug, not a runtime condition
	}
	return pa
}

// Frames resolves the physical frames behind n pages starting at the page
// containing va, in page order. Libraries that poll a mapped region call it
// once, when the region is set up, and keep the frames (pinned receive
// buffers never move). An unmapped page is a simulated segfault.
func (p *Process) Frames(va VA, n int) []mem.PFN {
	fs := make([]mem.PFN, n)
	for i := range fs {
		fs[i] = mem.PageOf(p.mustPA(va + VA(i*hw.Page)))
	}
	return fs
}

// --- Data access with cost accounting ---
//
// Bulk operations reserve the node memory bus so CPU copies and NIC DMA
// serialize against each other; small word touches are treated as cache
// traffic and charged flat CPU costs.

// Compute charges d of pure CPU time (no bus traffic).
func (p *Process) Compute(d time.Duration) {
	_, end := p.M.CPU.Reserve(d)
	p.P.Sleep(end.Sub(p.P.Now()))
}

// busyUntil reserves the memory bus for dur and sleeps the proc to the end
// of the reservation.
func (p *Process) busyUntil(dur time.Duration) {
	_, end := p.M.MemBus.Reserve(dur)
	p.P.Sleep(end.Sub(p.P.Now()))
}

// SetAUPage is used by the VMMC layer to tell the kernel cost model that
// stores to this page stream to the bus at the (slower) snooped rate.
func (p *Process) SetAUPage(vpn VPN, on bool) {
	if on {
		p.auPages[vpn] = true
	} else {
		delete(p.auPages, vpn)
	}
}

// IsAUPage reports whether the page has an automatic-update binding.
func (p *Process) IsAUPage(vpn VPN) bool { return p.auPages[vpn] }

// WriteBytes stores b at va through the CPU path, charging store costs
// page-fragment by page-fragment.
//
// Stores to AU-bound pages stream at the (slower, snooped) write-through
// rate in packet-sized segments; the written values become visible to the
// snoop logic one AUSnoopDelay later (the store traverses the cache
// hierarchy before appearing on the bus — a pipeline latency, not
// occupancy), so the NIC's outgoing path overlaps a long copy. Other stores
// pay the plain copy rate, or a flat cost for word-sized touches.
func (p *Process) WriteBytes(va VA, b []byte) {
	off := 0
	for off < len(b) {
		frag := len(b) - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		p.checkAccess(va+VA(off), true)
		vpn := PageOf(va + VA(off))
		pte, ok := p.pte(vpn)
		if !ok {
			panic(fmt.Errorf("page fault: %s store va %#x", p.Name, va+VA(off))) //lint:allow transitive-panic store to an unmapped page is a simulated segfault: a program bug, not a runtime condition
		}
		pa := pte.Frame.Base() + mem.PA(int(va+VA(off))%hw.Page)
		if p.auPages[vpn] {
			delay := hw.AUSnoopDelay
			if pte.Flags&FlagUncached != 0 {
				delay = hw.AUUncachedSnoopDelay
			}
			p.writeAUFragment(pa, b[off:off+frag], delay)
		} else {
			var cost time.Duration
			if frag <= 2*hw.WordSize {
				cost = hw.WordTouchCost
			} else {
				cost = time.Duration(frag) * hw.MemCopyPerByte
			}
			p.busyUntil(cost)
			p.M.Mem.WriteCPU(pa, b[off:off+frag])
		}
		off += frag
	}
}

// writeAUFragment streams one page-local store burst to an AU-bound page in
// AUSegment pieces: content lands (and watchers fire) when the CPU retires
// each segment; the snoop logic sees a captured copy of the values one delay
// later.
func (p *Process) writeAUFragment(pa mem.PA, b []byte, delay time.Duration) {
	for len(b) > 0 {
		seg := len(b)
		if seg > hw.AUSegment {
			seg = hw.AUSegment
		}
		p.busyUntil(time.Duration(seg) * hw.AUStorePerByte)
		captured := append(p.M.getSeg(), b[:seg]...)
		segPA := pa
		p.M.Mem.WriteNoSnoop(segPA, captured)
		p.M.Eng.Post(delay, func() {
			// The snoop copies what it keeps, so the capture buffer is
			// free again once presented.
			p.M.Mem.PresentToSnoop(segPA, captured)
			p.M.putSeg(captured)
		})
		pa += mem.PA(seg)
		b = b[seg:]
	}
}

// getSeg takes an empty AU capture buffer from the pool.
func (m *Machine) getSeg() []byte {
	if l := len(m.segPool); l > 0 {
		b := m.segPool[l-1]
		m.segPool[l-1] = nil
		m.segPool = m.segPool[:l-1]
		return b[:0]
	}
	return make([]byte, 0, hw.AUSegment)
}

// putSeg returns an AU capture buffer to the pool.
func (m *Machine) putSeg(b []byte) {
	if cap(b) >= hw.AUSegment {
		m.segPool = append(m.segPool, b)
	}
}

// ReadBytes loads n bytes at va, charging the copy rate for bulk reads and
// a flat cost for word-sized touches.
func (p *Process) ReadBytes(va VA, n int) []byte {
	out := make([]byte, n)
	off := 0
	for off < n {
		frag := n - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		p.checkAccess(va+VA(off), false)
		pa := p.mustPA(va + VA(off))
		var cost time.Duration
		if frag <= 2*hw.WordSize {
			cost = hw.WordTouchCost
		} else {
			cost = time.Duration(frag) * hw.MemCopyPerByte
		}
		p.busyUntil(cost)
		p.M.Mem.ReadInto(pa, out[off:off+frag])
		off += frag
	}
	return out
}

// CopyVA copies n bytes from srcVA to dstVA within the process, as a user
// memcpy: one pass charged at the copy rate (AU destinations at the AU
// store rate), moving real bytes.
func (p *Process) CopyVA(dstVA, srcVA VA, n int) {
	const chunk = 8 * 1024
	for n > 0 {
		c := n
		if c > chunk {
			c = chunk
		}
		p.checkRange(srcVA, c, false)
		b := p.peek(srcVA, c)
		p.WriteBytes(dstVA, b)
		srcVA += VA(c)
		dstVA += VA(c)
		n -= c
	}
}

// peek reads bytes with no time charge (used when the cost is charged on
// the write side of a copy, so the pass is costed once, like a real
// memcpy).
func (p *Process) peek(va VA, n int) []byte {
	out := make([]byte, n)
	off := 0
	for off < n {
		frag := n - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		pa := p.mustPA(va + VA(off))
		p.M.Mem.ReadInto(pa, out[off:off+frag])
		off += frag
	}
	return out
}

// Peek exposes zero-cost reads for assertions in tests and for the
// simulation's own bookkeeping. Library protocol code must use ReadBytes.
func (p *Process) Peek(va VA, n int) []byte { return p.peek(va, n) }

// Poke writes bytes with no time charge, for test setup only.
func (p *Process) Poke(va VA, b []byte) {
	off := 0
	for off < len(b) {
		frag := len(b) - off
		room := hw.Page - int((va+VA(off))%hw.Page)
		if frag > room {
			frag = room
		}
		pa := p.mustPA(va + VA(off))
		p.M.Mem.WriteDMA(pa, b[off:off+frag])
		off += frag
	}
}

// WriteWord stores a 32-bit word (flag/descriptor update) with CPU-path
// semantics: snooped if the page is AU-bound.
func (p *Process) WriteWord(va VA, v uint32) {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	p.WriteBytes(va, b[:])
}

// ReadWord loads a 32-bit word, charging one poll-check cost.
func (p *Process) ReadWord(va VA) uint32 {
	p.checkAccess(va, false)
	p.P.Sleep(hw.PollCheckCost)
	return p.M.Mem.U32(p.mustPA(va))
}

// PeekWord loads a 32-bit word with no time charge.
func (p *Process) PeekWord(va VA) uint32 { return p.M.Mem.U32(p.mustPA(va)) }

// WaitWord blocks until pred holds on the word at va, polling via memory
// watchers (no time quantization; one poll-check is charged per wakeup).
func (p *Process) WaitWord(va VA, pred func(uint32) bool) uint32 {
	pa := p.mustPA(va)
	for {
		p.P.Sleep(hw.PollCheckCost)
		v := p.M.Mem.U32(pa)
		if pred(v) {
			return v
		}
		p.M.Mem.WaitChange(p.P, pa)
	}
}

// pageConds returns the watcher conds of the pages holding vas, deduped
// in first-seen order, followed by extra. With no vas, extra itself is
// returned: it is only read, so there is nothing to copy.
func (p *Process) pageConds(vas []VA, extra []*sim.Cond) []*sim.Cond {
	if len(vas) == 0 {
		return extra
	}
	conds := make([]*sim.Cond, 0, len(vas)+len(extra))
	for _, va := range vas {
		if c := p.M.Mem.PageCond(mem.PageOf(p.mustPA(va))); !slices.Contains(conds, c) {
			conds = append(conds, c)
		}
	}
	return append(conds, extra...)
}

// WaitPred blocks until pred holds, re-checking when a write lands in a
// page containing one of vas or when any of the extra conds is signaled.
// pred is charged one poll-check per evaluation. This is the poll loop of
// every library that multiplexes memory-mapped channels: the
// message-passing receive scans (which pass their regions' page conds as
// extra) and servers mixing streams with control-network ports.
func (p *Process) WaitPred(vas []VA, extra []*sim.Cond, pred func() bool) {
	conds := p.pageConds(vas, extra)
	for {
		p.P.Sleep(hw.PollCheckCost)
		if pred() {
			return
		}
		sim.WaitAny(p.P, conds...)
	}
}

// WaitPredTimeout is WaitPred with a deadline: it reports whether pred
// held (true) or the deadline passed first (false). The survivable
// blocking paths (socket space/recv waits) are built on it.
func (p *Process) WaitPredTimeout(vas []VA, extra []*sim.Cond, pred func() bool, d time.Duration) bool {
	conds := p.pageConds(vas, extra)
	deadline := p.P.Now().Add(d)
	for {
		p.P.Sleep(hw.PollCheckCost)
		if pred() {
			return true
		}
		remain := deadline.Sub(p.P.Now())
		if remain <= 0 {
			return false
		}
		if sim.WaitAnyTimeout(p.P, remain, conds...) {
			// Deadline hit while parked; one final check decides.
			p.P.Sleep(hw.PollCheckCost)
			return pred()
		}
	}
}

// WaitWordTimeout is WaitWord with a deadline; ok=false on timeout.
func (p *Process) WaitWordTimeout(va VA, pred func(uint32) bool, d time.Duration) (uint32, bool) {
	pa := p.mustPA(va)
	deadline := p.P.Now().Add(d)
	for {
		p.P.Sleep(hw.PollCheckCost)
		v := p.M.Mem.U32(pa)
		if pred(v) {
			return v, true
		}
		remain := deadline.Sub(p.P.Now())
		if remain <= 0 {
			return v, false
		}
		if p.M.Mem.WaitChangeTimeout(p.P, pa, remain) {
			return p.M.Mem.U32(pa), false
		}
	}
}

// --- Signals (substrate for VMMC notifications) ---

// OnSignal installs a handler for signal num. Handlers run in the process
// context after kernel delivery cost.
func (p *Process) OnSignal(num int, fn func(*Process, Signal)) { p.handlers[num] = fn }

// BlockSignals queues future signals instead of delivering them.
func (p *Process) BlockSignals() { p.blocked = true }

// UnblockSignals delivers anything queued and resumes immediate delivery.
func (p *Process) UnblockSignals() {
	p.blocked = false
	p.drainSignals()
}

// SignalsBlocked reports the blocking state.
func (p *Process) SignalsBlocked() bool { return p.blocked }

// Deliver queues a signal to the process. Delivery interrupts blocking
// waits; if the process has blocked signals, the signal stays queued (the
// paper: "unlike signals, however, notifications are queued when blocked").
func (p *Process) Deliver(s Signal) {
	p.sigQueue = append(p.sigQueue, s)
	p.sigCond.Broadcast()
	if p.blocked || p.exited {
		return
	}
	p.P.Interrupt(func(sp *sim.Proc) {
		sp.Sleep(hw.SignalDeliveryCost)
		p.drainSignals()
	})
}

func (p *Process) drainSignals() {
	for !p.blocked && len(p.sigQueue) > 0 {
		s := p.sigQueue[0]
		p.sigQueue = p.sigQueue[1:]
		if fn, ok := p.handlers[s.Num]; ok {
			fn(p, s)
		}
	}
}

// PendingSignals returns the number of queued, undelivered signals.
func (p *Process) PendingSignals() int { return len(p.sigQueue) }

// WaitSignal suspends the process until a signal with the given number is
// queued, then removes and returns it. This is the "process can be
// suspended until a particular notification arrives" facility.
func (p *Process) WaitSignal(num int) Signal {
	for {
		for i, s := range p.sigQueue {
			if s.Num == num {
				p.sigQueue = append(p.sigQueue[:i], p.sigQueue[i+1:]...)
				return s
			}
		}
		p.sigCond.Wait(p.P)
	}
}
