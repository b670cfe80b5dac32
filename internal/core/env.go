package core

import (
	"math/rand"

	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Env is a gateway's only port to the outside world: its identity, a
// clock, timers, a random source, and packet output. The simulator
// binds it to a netsim node (Attach); the UDP runtime binds it to a
// socket and wall-clock timers (internal/wire). Both transports run
// sends and timer callbacks synchronously, and both serialise every
// call into the gateway — the simulator by its single event loop, the
// wire runtime with one mutex taken by every packet, timer, and admin
// entry point.
type Env interface {
	Addr() flow.Addr
	Name() string
	Now() sim.Time
	// After runs fn once, d from now; At runs it at absolute time t
	// (times already past run as soon as possible).
	After(d sim.Time, fn func()) Timer
	At(t sim.Time, fn func()) Timer
	// Rand is the gateway's random source: handshake nonces and
	// retransmission jitter.
	Rand() *rand.Rand
	// Originate sends a locally generated packet toward its
	// destination; Forward moves a transit packet one hop on and
	// reports whether it left. Both consume p.
	Originate(p *packet.Packet)
	Forward(p *packet.Packet) bool
	// NextHop returns the neighbour the route toward dst leaves
	// through.
	NextHop(dst flow.Addr) (flow.Addr, bool)
}

// Timer cancels a scheduled callback. Cancelling a timer that already
// fired is a no-op.
type Timer interface{ Cancel() }

// netsimEnv binds a gateway to a simulated node: virtual time, the
// engine's seeded random source, and the node's interfaces.
type netsimEnv struct{ n *netsim.Node }

func (e netsimEnv) Addr() flow.Addr                   { return e.n.Addr() }
func (e netsimEnv) Name() string                      { return e.n.Name() }
func (e netsimEnv) Now() sim.Time                     { return e.n.Engine().Now() }
func (e netsimEnv) After(d sim.Time, fn func()) Timer { return e.n.Engine().Schedule(d, fn) }
func (e netsimEnv) At(t sim.Time, fn func()) Timer    { return e.n.Engine().ScheduleAt(t, fn) }
func (e netsimEnv) Rand() *rand.Rand                  { return e.n.Engine().Rand() }
func (e netsimEnv) Originate(p *packet.Packet)        { e.n.Originate(p) }
func (e netsimEnv) Forward(p *packet.Packet) bool     { return e.n.Forward(p) }
func (e netsimEnv) NextHop(dst flow.Addr) (flow.Addr, bool) {
	if hop := e.n.NextHop(dst); hop != nil {
		return hop.Neighbor().Addr(), true
	}
	return 0, false
}

// neighbor maps a netsim arrival interface to the neighbour's address,
// 0 for locally injected packets.
func neighbor(from *netsim.Iface) flow.Addr {
	if from == nil {
		return 0
	}
	return from.Neighbor().Addr()
}

// Attach binds the gateway to a simulated node and installs it as the
// node's packet handler.
func (g *Gateway) Attach(n *netsim.Node, tr Tracer) {
	g.node = n
	n.SetHandler(g)
	g.Start(netsimEnv{n}, tr)
}

// Node returns the bound netsim node (nil under another transport).
func (g *Gateway) Node() *netsim.Node { return g.node }

// Receive implements netsim.Handler.
func (g *Gateway) Receive(_ *netsim.Node, p *packet.Packet, from *netsim.Iface) {
	g.Handle(p, neighbor(from))
}

// ReceiveBatch implements netsim.BatchHandler.
func (g *Gateway) ReceiveBatch(_ *netsim.Node, ps []*packet.Packet, from *netsim.Iface) {
	g.handleBatch(ps, neighbor(from))
}
