// Package srpc is the specialized, non-compatible SHRIMP RPC system of
// paper Section 5: a real RPC system — with a stub generator that reads an
// interface definition file and generates marshaling code — designed for
// the SHRIMP hardware rather than for compatibility. Its design follows
// Bershad's URPC, adapted to virtual memory-mapped communication:
//
//   - Each binding consists of one receive buffer on each side (client and
//     server) with bidirectional import-export mappings between them,
//     connected by automatic-update bindings.
//   - The client stub marshals arguments into its buffer so that they fill
//     memory consecutively, ending immediately before a flag word that is
//     in the same place for all calls on the binding; arguments and flag
//     combine into a single packet train (for small calls: one packet).
//   - The server polls the flag; when a call arrives the arguments are
//     still in the server's buffer, and OUT/INOUT parameters are passed to
//     the procedure by reference — pointers into the server's outgoing
//     communication buffer, which is AU-bound back to the client. Writes
//     to them propagate silently while the server computes; finishing a
//     call is just one more flag write.
//
// The flag word encodes (sequence, procedure, payload length), so the
// receiver can locate the variable-length payload that ends right below
// the flag.
package srpc

import (
	"errors"
	"fmt"
	"time"

	"shrimp/internal/ether"
	"shrimp/internal/hw"
	"shrimp/internal/kernel"
	"shrimp/internal/retry"
	"shrimp/internal/trace"
	"shrimp/internal/vmmc"
)

// ErrTimeout reports that a CallTimeout deadline expired before the reply
// flag arrived — the serving-side failover path uses it to detect a dead
// primary.
var ErrTimeout = errors.New("srpc: call timed out")

// Buffer geometry: one region per direction; payloads grow downward from
// the flag word, which sits at a fixed offset.
const (
	bufBytes   = 16 << 10
	flagOff    = bufBytes - 8
	regionSize = bufBytes
	// MaxPayload bounds one call's marshaled arguments (or results).
	MaxPayload = flagOff - 16

	regionPages = (regionSize + hw.Page - 1) / hw.Page
)

// Flag packing: [seq:12][proc:8][words:12].
func packFlag(seq uint32, proc int, length int) uint32 {
	return (seq&0xfff)<<20 | uint32(proc&0xff)<<12 | uint32(length/4)&0xfff
}

func flagSeq(v uint32) uint32 { return v >> 20 }
func flagProc(v uint32) int   { return int(v >> 12 & 0xff) }
func flagLen(v uint32) int    { return int(v&0xfff) * 4 }

// Binding is one endpoint of an SRPC binding.
type Binding struct {
	ep *vmmc.Endpoint

	out    *vmmc.Import
	shadow kernel.VA // AU shadow of the peer's buffer
	in     kernel.VA // local buffer, exported to the peer

	seq uint32 // calls issued (client) or served (server)

	// tc/track: the node's observability collector (nil-safe) and this
	// library's precomputed track name ("node3/srpc").
	tc    *trace.Collector
	track string
}

// --- Binding establishment (over the conventional network, like the other
// libraries' connection setup) ---

type bindReq struct {
	Node   int
	Region string
}

type bindResp struct {
	Err    string
	Region string
}

// Listener accepts SRPC bindings.
type Listener struct {
	ep   *vmmc.Endpoint
	eth  *ether.Network
	node int
	port *ether.Port
}

// Listen binds an SRPC service rendezvous port.
func Listen(ep *vmmc.Endpoint, eth *ether.Network, node, port int) *Listener {
	return &Listener{ep: ep, eth: eth, node: node,
		port: eth.Bind(ether.Addr{Node: node, Port: port})}
}

// Port exposes the listener's rendezvous port so a server process can
// multiplex accepting (Port().Pending/Cond) with serving established
// bindings (FlagVA/CallReady) in one WaitPred loop.
func (ln *Listener) Port() *ether.Port { return ln.port }

// Accept waits for one binding request and establishes the buffer pair.
func (ln *Listener) Accept() (*Binding, error) {
	p := ln.ep.Proc
	m := ln.port.Recv(p.P)
	if m == nil {
		return nil, fmt.Errorf("srpc: listener closed")
	}
	req := m.Payload.(bindReq)
	out, err := ln.ep.Import(req.Node, req.Region)
	if err != nil {
		ln.port.Send(p.P, m.From, 64, bindResp{Err: err.Error()})
		return nil, err
	}
	name := fmt.Sprintf("srpc:%d:%06d", ln.node, ln.eth.NameSeq())
	in := p.MapPages(regionPages, 0)
	if _, err := ln.ep.Export(in, regionPages, vmmc.ExportOpts{Name: name}); err != nil {
		ln.port.Send(p.P, m.From, 64, bindResp{Err: err.Error()})
		return nil, err
	}
	b, err := wire(ln.ep, out, in)
	if err != nil {
		ln.port.Send(p.P, m.From, 64, bindResp{Err: err.Error()})
		return nil, err
	}
	ln.port.Send(p.P, m.From, 64+len(name), bindResp{Region: name})
	return b, nil
}

// Bind establishes a client binding to a listening service.
func Bind(ep *vmmc.Endpoint, eth *ether.Network, serverNode, port int) (*Binding, error) {
	p := ep.Proc
	seq := eth.NameSeq()
	name := fmt.Sprintf("srpc:%d:%06d", p.M.ID, seq)
	in := p.MapPages(regionPages, 0)
	if _, err := ep.Export(in, regionPages, vmmc.ExportOpts{Name: name}); err != nil {
		return nil, err
	}
	eport := eth.Bind(ether.Addr{Node: p.M.ID, Port: 50000 + seq})
	defer eport.Close()
	reply := eport.Call(p.P, ether.Addr{Node: serverNode, Port: port}, 64+len(name),
		bindReq{Node: p.M.ID, Region: name})
	if reply == nil {
		return nil, fmt.Errorf("srpc: bind to %d:%d failed", serverNode, port)
	}
	resp := reply.Payload.(bindResp)
	if resp.Err != "" {
		return nil, fmt.Errorf("srpc: bind: %s", resp.Err)
	}
	out, err := ep.Import(serverNode, resp.Region)
	if err != nil {
		return nil, err
	}
	return wire(ep, out, in)
}

// BindTimeout is Bind with a deadline on the rendezvous round-trip: it
// returns ErrTimeout instead of blocking forever when the server node is
// dead or not yet listening. Failover-aware clients (the serving
// subsystem's gateways and replication path) use it exclusively, since a
// routing table can briefly point at a corpse.
func BindTimeout(ep *vmmc.Endpoint, eth *ether.Network, serverNode, port int, d time.Duration) (*Binding, error) {
	p := ep.Proc
	seq := eth.NameSeq()
	name := fmt.Sprintf("srpc:%d:%06d", p.M.ID, seq)
	in := p.MapPages(regionPages, 0)
	if _, err := ep.Export(in, regionPages, vmmc.ExportOpts{Name: name}); err != nil {
		return nil, err
	}
	eport := eth.Bind(ether.Addr{Node: p.M.ID, Port: 50000 + seq})
	defer eport.Close()
	reply := eport.CallTimeout(p.P, ether.Addr{Node: serverNode, Port: port}, 64+len(name),
		bindReq{Node: p.M.ID, Region: name}, d)
	if reply == nil {
		return nil, ErrTimeout
	}
	resp := reply.Payload.(bindResp)
	if resp.Err != "" {
		return nil, fmt.Errorf("srpc: bind: %s", resp.Err)
	}
	out, err := ep.Import(serverNode, resp.Region)
	if err != nil {
		return nil, err
	}
	return wire(ep, out, in)
}

// BindBackoff is BindTimeout under a retry policy: each attempt gets the
// same per-attempt deadline, and failed attempts sleep the policy's
// seeded jittered backoff before trying again. Only rendezvous timeouts
// retry — a server-side refusal (resp.Err) is definitive and returns
// immediately. Warmup paths use it so one congested or gray rendezvous
// does not permanently cost a client its binding; failure-detection paths
// should keep calling BindTimeout directly, where slowness must stay
// indistinguishable from death.
func BindBackoff(ep *vmmc.Endpoint, eth *ether.Network, serverNode, port int, d time.Duration, pol retry.Policy, seed uint64) (*Binding, error) {
	bo := retry.New(pol, seed)
	for {
		b, err := BindTimeout(ep, eth, serverNode, port, d)
		if err != ErrTimeout {
			return b, err
		}
		wait, ok := bo.Next()
		if !ok {
			return nil, ErrTimeout
		}
		ep.Proc.P.Sleep(wait)
	}
}

func wire(ep *vmmc.Endpoint, out *vmmc.Import, in kernel.VA) (*Binding, error) {
	p := ep.Proc
	b := &Binding{ep: ep, out: out, in: in,
		tc: p.M.Trace, track: p.M.TraceNode + "/srpc"}
	b.shadow = p.MapPages(regionPages, 0)
	if _, err := ep.BindAU(b.shadow, out, 0, regionPages, vmmc.AUOpts{Combine: true, Timer: true}); err != nil {
		return nil, err
	}
	return b, nil
}

// Proc returns the owning process.
func (b *Binding) Proc() *kernel.Process { return b.ep.Proc }

// --- Client side ---

// Call issues procedure `proc` with the marshaled argument image (its
// length must be a word multiple; images are laid out by generated stubs so
// the data ends immediately below the flag). It blocks for the reply flag
// and returns the reply payload length; the payload itself is read through
// ReplyVA/ReadReply.
func (b *Binding) Call(proc int, img []byte) int {
	p := b.ep.Proc
	if len(img)%4 != 0 || len(img) > MaxPayload {
		panic(fmt.Sprintf("srpc: bad argument image length %d", len(img)))
	}
	span := b.tc.Begin(b.track, "call")
	defer span.End()
	b.tc.Count(b.track, "calls", 1)
	b.tc.Count(b.track, "call.bytes", int64(len(img)))
	b.seq++
	// Arguments fill memory consecutively, ending at the flag, so the
	// hardware combines arguments and flag into a single packet train.
	if len(img) > 0 {
		p.WriteBytes(b.shadow+kernel.VA(flagOff-len(img)), img)
	}
	p.WriteWord(b.shadow+kernel.VA(flagOff), packFlag(b.seq, proc, len(img)))

	want := b.seq & 0xfff
	v := p.WaitWord(b.in+kernel.VA(flagOff), func(v uint32) bool { return flagSeq(v) == want })
	return flagLen(v)
}

// CallTimeout is Call with a reply deadline: it issues the call and blocks
// at most d for the reply flag, returning ErrTimeout when the deadline
// expires (the peer is stalled or dead — the binding is then out of sync
// and should be abandoned). Unlike Call it reports a bad argument image as
// an error instead of panicking, so generated-stub-free callers (the
// serving subsystem builds batch images at runtime) get a checkable
// failure.
func (b *Binding) CallTimeout(proc int, img []byte, d time.Duration) (int, error) {
	p := b.ep.Proc
	if len(img)%4 != 0 || len(img) > MaxPayload {
		return 0, fmt.Errorf("srpc: bad argument image length %d", len(img))
	}
	span := b.tc.Begin(b.track, "call")
	defer span.End()
	b.tc.Count(b.track, "calls", 1)
	b.tc.Count(b.track, "call.bytes", int64(len(img)))
	b.seq++
	if len(img) > 0 {
		p.WriteBytes(b.shadow+kernel.VA(flagOff-len(img)), img)
	}
	p.WriteWord(b.shadow+kernel.VA(flagOff), packFlag(b.seq, proc, len(img)))

	want := b.seq & 0xfff
	v, ok := p.WaitWordTimeout(b.in+kernel.VA(flagOff),
		func(v uint32) bool { return flagSeq(v) == want }, d)
	if !ok {
		b.tc.Count(b.track, "call.timeouts", 1)
		return 0, ErrTimeout
	}
	return flagLen(v), nil
}

// ReplyVA returns the address of the reply payload of length rlen — results
// are accessed in place (by reference); the binding's buffers are trusted
// within the binding, so no defensive copy is needed.
func (b *Binding) ReplyVA(rlen int) kernel.VA {
	return b.in + kernel.VA(flagOff-rlen)
}

// ReadReply copies the reply payload out (for stubs that return Go values).
func (b *Binding) ReadReply(rlen int) []byte {
	if rlen == 0 {
		return nil
	}
	return b.ep.Proc.ReadBytes(b.ReplyVA(rlen), rlen)
}

// --- Server side ---

// NextCall blocks for the next incoming call, returning its procedure
// number and argument payload length.
func (b *Binding) NextCall() (proc, argLen int) {
	p := b.ep.Proc
	want := (b.seq + 1) & 0xfff
	v := p.WaitWord(b.in+kernel.VA(flagOff), func(v uint32) bool { return flagSeq(v) == want })
	b.seq++
	return flagProc(v), flagLen(v)
}

// FlagVA returns the address of the binding's incoming flag word. A server
// process multiplexing many bindings passes the flag addresses to
// kernel.Process.WaitPred and uses CallReady to find which binding fired —
// one process serving an open-ended set of clients, where NextCall alone
// would pin the process to a single binding.
func (b *Binding) FlagVA() kernel.VA { return b.in + kernel.VA(flagOff) }

// CallReady reports, without blocking or charging time, whether the next
// in-sequence call has arrived on this binding; NextCall will then return
// immediately.
func (b *Binding) CallReady() bool {
	want := (b.seq + 1) & 0xfff
	return flagSeq(b.ep.Proc.PeekWord(b.FlagVA())) == want
}

// ArgsVA returns the address of the current call's argument payload — the
// arguments are still in the server's buffer; no unmarshaling copy.
func (b *Binding) ArgsVA(argLen int) kernel.VA {
	return b.in + kernel.VA(flagOff-argLen)
}

// ReadArgs copies the argument payload out (stubs for by-value parameters).
func (b *Binding) ReadArgs(argLen int) []byte {
	if argLen == 0 {
		return nil
	}
	return b.ep.Proc.ReadBytes(b.ArgsVA(argLen), argLen)
}

// Finish completes the current call: the results (already copied in with
// WriteResults) are capped with the reply flag —
// "when the call is done, the server sends return values and a flag back…
// the flag is immediately after the data, so only one data transfer is
// required".
func (b *Binding) Finish(proc, rlen int) {
	p := b.ep.Proc
	b.tc.Count(b.track, "replies", 1)
	b.tc.Count(b.track, "reply.bytes", int64(rlen))
	p.WriteWord(b.shadow+kernel.VA(flagOff), packFlag(b.seq, proc, rlen))
}

// WriteResults copies a marshaled result image into the outgoing buffer
// (for by-value OUT parameters built in the handler).
func (b *Binding) WriteResults(img []byte) {
	if len(img) == 0 {
		return
	}
	b.ep.Proc.WriteBytes(b.shadow+kernel.VA(flagOff-len(img)), img)
}

// WriteResultsAt places a scalar result image at the head of a reply image
// of total length rlen (ahead of a bytes field written through a Ref).
func (b *Binding) WriteResultsAt(rlen int, img []byte) {
	if len(img) == 0 {
		return
	}
	b.ep.Proc.WriteBytes(b.shadow+kernel.VA(flagOff-rlen), img)
}

// Ref is a by-reference parameter view backed by the outgoing communication
// buffer: reads see the current contents; writes propagate by automatic
// update in the background.
type Ref struct {
	b    *Binding
	base kernel.VA
	n    int
}

// Len returns the referenced payload size.
func (r *Ref) Len() int { return r.n }

// Bytes reads the current contents (charged as a data touch).
func (r *Ref) Bytes() []byte { return r.b.ep.Proc.ReadBytes(r.base, r.n) }

// Peek reads without time charge (for assertions in tests).
func (r *Ref) Peek() []byte { return r.b.ep.Proc.Peek(r.base, r.n) }

// Store writes bytes at offset off within the reference; the stores stream
// to the client automatically.
func (r *Ref) Store(off int, data []byte) {
	if off+len(data) > r.n {
		panic("srpc: Ref.Store out of range")
	}
	r.b.ep.Proc.WriteBytes(r.base+kernel.VA(off), data)
}

// StoreU32 writes one word at offset off.
func (r *Ref) StoreU32(off int, v uint32) {
	if off+4 > r.n {
		panic("srpc: Ref.StoreU32 out of range")
	}
	r.b.ep.Proc.WriteWord(r.base+kernel.VA(off), v)
}

// U32 reads one word at offset off.
func (r *Ref) U32(off int) uint32 {
	return r.b.ep.Proc.ReadWord(r.base + kernel.VA(off))
}
