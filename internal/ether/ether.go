// Package ether models the commodity 10 Mb/s Ethernet that connects the
// SHRIMP nodes alongside the fast backplane. The paper uses it "for
// diagnostics, booting, and exchange of low-priority messages"; in this
// reproduction it carries SHRIMP daemon traffic, socket connection
// establishment, and the conventional-network baselines the paper's RPC
// comparison implies.
//
// The model is a single shared medium (CSMA/CD collapsed to FIFO occupancy)
// plus per-message kernel protocol-stack costs on both ends. Payloads are Go
// values rather than wire bytes: only control-plane and baseline traffic
// travels here, and its timing — not its encoding — is what matters. The
// declared Size drives the timing.
package ether

import (
	"fmt"
	"time"

	"shrimp/internal/fault"
	"shrimp/internal/hw"
	"shrimp/internal/sim"
)

// Addr identifies an endpoint: a node and a port on it.
type Addr struct {
	Node int
	Port int
}

func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Node, a.Port) }

// Message is one datagram on the control network.
type Message struct {
	From, To Addr
	Size     int // bytes on the wire, for timing
	Payload  any
}

// Network is the shared segment.
type Network struct {
	eng    *sim.Engine
	medium *sim.Server
	ports  map[Addr]*Port
	nodes  int

	// nameSeq backs NameSeq. Per-network rather than process-global so
	// that independent clusters — possibly simulated concurrently on
	// different engines — never share mutable state.
	nameSeq int

	// inj, when non-nil, severs datagrams crossing an armed partition:
	// the control network rides the same racks as the backplane, so a
	// partition cuts both fabrics. Only the rand-free Cut check is
	// consulted — the control network does not share the backplane's
	// per-packet loss model.
	inj *fault.Injector

	// MessagesDelivered counts deliveries for tests.
	MessagesDelivered int64
	// MessagesSevered counts datagrams lost to armed partitions.
	MessagesSevered int64
}

// NameSeq returns the next per-network sequence number. The RPC libraries
// use it for binding names and ephemeral port numbers; consumers must embed
// it fixed-width in names so message sizes never depend on how many
// bindings came before.
func (n *Network) NameSeq() int {
	n.nameSeq++
	return n.nameSeq
}

// New returns an Ethernet segment serving the given number of nodes.
func New(eng *sim.Engine, nodes int) *Network {
	return &Network{
		eng:    eng,
		medium: sim.NewServer(eng),
		ports:  make(map[Addr]*Port),
		nodes:  nodes,
	}
}

// Port is a bound endpoint with an unbounded receive queue.
type Port struct {
	net   *Network
	addr  Addr
	queue []*Message
	avail *sim.Cond
	open  bool
}

// Bind claims addr and returns its port. Binding an in-use address panics —
// port allocation is a program bug, not a runtime condition, in this model.
func (n *Network) Bind(addr Addr) *Port {
	if addr.Node < 0 || addr.Node >= n.nodes {
		panic(fmt.Sprintf("ether: bind on unknown node %d", addr.Node)) //lint:allow transitive-panic port allocation is a program bug, not a runtime condition (see doc comment)
	}
	if _, busy := n.ports[addr]; busy {
		panic(fmt.Sprintf("ether: address %v already bound", addr)) //lint:allow transitive-panic port allocation is a program bug, not a runtime condition (see doc comment)
	}
	p := &Port{net: n, addr: addr, avail: sim.NewCond(n.eng), open: true}
	n.ports[addr] = p
	return p
}

// Close releases the port's address.
func (p *Port) Close() {
	if p.open {
		p.open = false
		delete(p.net.ports, p.addr)
		p.avail.Broadcast()
	}
}

// Addr returns the port's bound address.
func (p *Port) Addr() Addr { return p.addr }

// Cond returns the condition variable signaled on message arrival and
// close, for callers composing multi-source waits.
func (p *Port) Cond() *sim.Cond { return p.avail }

// Send transmits a datagram from this port. The caller's proc is charged the
// sender-side kernel stack cost; medium occupancy and the receive-side
// interrupt cost are modeled asynchronously. Messages to unbound addresses
// are dropped, as on a real datagram network.
func (p *Port) Send(proc *sim.Proc, to Addr, size int, payload any) {
	proc.Sleep(hw.EtherSyscallCost)
	p.net.transmit(&Message{From: p.addr, To: to, Size: size, Payload: payload})
}

// Inject delivers a control datagram originating from the network fabric
// itself rather than a bound port — the switch's link-down notification
// when a node crashes. It charges medium occupancy and the receive-side
// interrupt cost like any datagram, but no sender process exists to
// charge a syscall to. The From address carries Node -1 (no node).
func (n *Network) Inject(to Addr, size int, payload any) {
	n.transmit(&Message{From: Addr{Node: -1, Port: 0}, To: to, Size: size, Payload: payload})
}

// SetInjector arms partition cuts for every subsequent datagram.
func (n *Network) SetInjector(inj *fault.Injector) { n.inj = inj }

func (n *Network) transmit(m *Message) {
	frames := (m.Size + hw.EtherMTU - 1) / hw.EtherMTU
	if frames == 0 {
		frames = 1
	}
	wire := time.Duration(m.Size+frames*hw.EtherFrameOverhead) * hw.EtherPerByte
	_, end := n.medium.Reserve(wire)
	// Fabric-originated messages (From.Node < 0, e.g. the switch's own
	// link-down notification) are switch-local and never cut. Everything
	// else dies at an armed partition — after burning medium time, as the
	// frames were transmitted into the cut.
	if n.inj != nil && m.From.Node >= 0 &&
		n.inj.Cut(m.From.Node, m.To.Node, time.Duration(n.eng.Now())) {
		n.MessagesSevered++
		n.inj.Severed++
		return
	}
	n.eng.PostAt(end.Add(hw.EtherInterruptCost), func() {
		dst, ok := n.ports[m.To]
		if !ok {
			return // dropped
		}
		dst.queue = append(dst.queue, m)
		dst.avail.Broadcast()
		n.MessagesDelivered++
	})
}

// Recv blocks proc until a datagram arrives (or the port closes, returning
// nil).
func (p *Port) Recv(proc *sim.Proc) *Message {
	for len(p.queue) == 0 && p.open {
		p.avail.Wait(proc)
	}
	if len(p.queue) == 0 {
		return nil
	}
	m := p.queue[0]
	p.queue = p.queue[1:]
	return m
}

// Pending reports the number of queued datagrams.
func (p *Port) Pending() int { return len(p.queue) }

// TryRecv returns the next queued datagram without blocking, or nil.
func (p *Port) TryRecv() *Message {
	if len(p.queue) == 0 {
		return nil
	}
	m := p.queue[0]
	p.queue = p.queue[1:]
	return m
}

// Call sends a request and blocks until a reply arrives on this port from
// the destination address, leaving unrelated traffic queued. It is the
// simple RPC idiom the daemons use. Returns nil if the port closes.
func (p *Port) Call(proc *sim.Proc, to Addr, size int, payload any) *Message {
	return p.call(proc, to, size, payload, 0)
}

// CallTimeout is Call with a deadline: it returns nil if no reply arrives
// within d (datagrams are droppable; connection-establishment code uses
// this instead of blocking forever on a dead peer).
func (p *Port) CallTimeout(proc *sim.Proc, to Addr, size int, payload any, d time.Duration) *Message {
	return p.call(proc, to, size, payload, d)
}

func (p *Port) call(proc *sim.Proc, to Addr, size int, payload any, d time.Duration) *Message {
	p.Send(proc, to, size, payload)
	deadline := sim.Time(0)
	if d > 0 {
		deadline = proc.Now().Add(d)
	}
	for {
		for i, m := range p.queue {
			if m.From == to {
				p.queue = append(p.queue[:i], p.queue[i+1:]...)
				return m
			}
		}
		if !p.open {
			return nil
		}
		if d > 0 {
			remain := deadline.Sub(proc.Now())
			if remain <= 0 {
				return nil
			}
			if p.avail.WaitTimeout(proc, remain) {
				return nil
			}
		} else {
			p.avail.Wait(proc)
		}
	}
}
