// Package wire runs AITF nodes over real UDP sockets on real time — a
// multi-process-style deployment of the same wire format the simulator
// uses (internal/packet). Each node binds one UDP socket; data packets
// hop node to node exactly as in the simulator, so border routers
// stamp route records, police requests, run the 3-way handshake, and
// install filters against genuine traffic.
//
// A wire gateway is a transport adapter around the simulator's own
// protocol engine (core.Gateway): the full §II protocol — per-neighbour
// policing, the §II-E handshake, escalation rounds, compliance checks,
// and disconnection — runs unchanged over sockets and wall-clock
// timers. Hosts (Host) are a lighter wire-only implementation.
package wire

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// Book maps protocol addresses to UDP endpoints; every node holds the
// same book (a static "DNS" for the emulation).
type Book map[flow.Addr]string

// Resolve returns the UDP address for a protocol address.
func (b Book) Resolve(a flow.Addr) (*net.UDPAddr, error) {
	s, ok := b[a]
	if !ok {
		return nil, fmt.Errorf("wire: no endpoint for %v", a)
	}
	return net.ResolveUDPAddr("udp", s)
}

// peers indexes the book by endpoint, mapping a datagram's source
// socket back to the protocol address that owns it. Entries that do
// not resolve are left out.
func (b Book) peers() map[netip.AddrPort]flow.Addr {
	rev := make(map[netip.AddrPort]flow.Addr, len(b))
	for a, ep := range b {
		ua, err := net.ResolveUDPAddr("udp", ep)
		if err != nil {
			continue
		}
		rev[unmap(ua.AddrPort())] = a
	}
	return rev
}

// unmap strips the IPv4-in-IPv6 mapping a dual-stack socket reports.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Handler processes packets delivered to a node. from is the protocol
// address of the neighbour whose socket sent the datagram, or zero
// when the source endpoint is not in the book.
type Handler interface {
	Handle(n *Node, p *packet.Packet, from flow.Addr)
}

// NodeConfig configures the transport of one wire node.
type NodeConfig struct {
	// Addr is the node's protocol address.
	Addr flow.Addr
	// Name labels log lines.
	Name string
	// Listen is the UDP listen address, e.g. "127.0.0.1:0".
	Listen string
	// Book maps every node of the deployment to its UDP endpoint.
	// When a node listens on a dynamic port, use SetBook after binding.
	Book Book
	// NextHop routes destinations to neighbor protocol addresses;
	// destinations missing from the table are unroutable.
	NextHop map[flow.Addr]flow.Addr
}

// Node is the shared UDP transport under a wire gateway or host.
type Node struct {
	mu      sync.Mutex
	cfg     NodeConfig
	conn    *net.UDPConn
	peers   map[netip.AddrPort]flow.Addr // the book, by endpoint
	handler Handler
	closed  bool
	wg      sync.WaitGroup

	// Sent and Received count packets for tests and stats;
	// the Ctrl/Data splits separate protocol signaling from payload so
	// the metrics surface can show control-plane loss independently of
	// attack congestion (the netsim interfaces keep the same split).
	Sent, Received         uint64
	CtrlSent, DataSent     uint64
	CtrlReceived, DataRecv uint64
}

// NewNode binds the UDP socket. Call SetHandler then Run.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	la, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %q: %w", cfg.Listen, err)
	}
	if cfg.Book == nil {
		cfg.Book = Book{}
	}
	n := &Node{cfg: cfg, conn: conn, peers: cfg.Book.peers()}
	return n, nil
}

// Addr returns the node's protocol address.
func (n *Node) Addr() flow.Addr { return n.cfg.Addr }

// Name returns the node's label.
func (n *Node) Name() string { return n.cfg.Name }

// UDPAddr returns the bound socket address (useful with ":0" listens).
func (n *Node) UDPAddr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

// SetBook replaces the endpoint book (after all nodes have bound).
func (n *Node) SetBook(b Book) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Book = b
	n.peers = b.peers()
}

// SetHandler installs the protocol logic.
func (n *Node) SetHandler(h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// Run starts the receive loop; it returns immediately.
func (n *Node) Run() {
	n.wg.Add(1)
	go n.readLoop()
}

// Close shuts the socket down and waits for the receive loop.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

func (n *Node) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		sz, src, err := n.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		// Decode into a pooled packet: shells released downstream (e.g.
		// by the gateway's data path once a verdict is final) cycle back
		// here instead of being reallocated per datagram.
		p := packet.Get()
		if err := packet.UnmarshalInto(p, buf[:sz]); err != nil {
			p.Release()
			continue // mangled datagram
		}
		n.mu.Lock()
		n.Received++
		if p.IsControl() {
			n.CtrlReceived++
		} else {
			n.DataRecv++
		}
		h := n.handler
		// The neighbour is whoever owns the sending socket, never what
		// the datagram claims: policing, compliance, and disconnection
		// all key on it, so attacker-chosen bytes must not steer it.
		from := n.peers[unmap(src)]
		n.mu.Unlock()
		if h != nil {
			h.Handle(n, p, from)
		} else {
			p.Release()
		}
	}
}

// ErrNoRoute reports an unroutable destination.
var ErrNoRoute = errors.New("wire: no route")

// encBufPool recycles marshal buffers across SendTo calls (and across
// nodes): WriteToUDP copies the datagram into the kernel, so the buffer
// is reusable the moment the syscall returns.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// SendTo marshals p into a pooled buffer and sends it directly to the
// node owning addr.
func (n *Node) SendTo(addr flow.Addr, p *packet.Packet) error {
	ua, err := n.cfg.Book.Resolve(addr)
	if err != nil {
		return err
	}
	bp := encBufPool.Get().(*[]byte)
	b, err := packet.AppendMarshal((*bp)[:0], p)
	*bp = b[:0] // keep any growth for the next sender
	if err != nil {
		encBufPool.Put(bp)
		return err
	}
	_, err = n.conn.WriteToUDP(b, ua)
	encBufPool.Put(bp)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.Sent++
	if p.IsControl() {
		n.CtrlSent++
	} else {
		n.DataSent++
	}
	n.mu.Unlock()
	return nil
}

// Forward sends p one hop toward its destination using the routing
// table, decrementing the TTL.
func (n *Node) Forward(p *packet.Packet) error {
	if p.TTL == 0 {
		return fmt.Errorf("wire: TTL expired for %v", p.Dst)
	}
	p.TTL--
	hop, ok := n.cfg.NextHop[p.Dst]
	if !ok {
		return fmt.Errorf("%w to %v", ErrNoRoute, p.Dst)
	}
	return n.SendTo(hop, p)
}

// Originate injects a locally generated packet, stamping the source.
func (n *Node) Originate(p *packet.Packet) error {
	if p.Src == 0 {
		p.Src = n.cfg.Addr
	}
	hop, ok := n.cfg.NextHop[p.Dst]
	if !ok {
		return fmt.Errorf("%w to %v", ErrNoRoute, p.Dst)
	}
	return n.SendTo(hop, p)
}

// timerSet manages cancellable real-time timers under the owner's lock
// discipline: callbacks run in their own goroutine and must take the
// owner's mutex themselves. Once stopAll has run, after schedules
// nothing, so a callback racing shutdown cannot re-arm.
type timerSet struct {
	mu      sync.Mutex
	timers  map[uint64]*time.Timer
	next    uint64
	stopped bool
}

func newTimerSet() *timerSet { return &timerSet{timers: make(map[uint64]*time.Timer)} }

// after schedules fn once after d, returning a cancel func.
func (ts *timerSet) after(d time.Duration, fn func()) (cancel func()) {
	ts.mu.Lock()
	if ts.stopped {
		ts.mu.Unlock()
		return func() {}
	}
	id := ts.next
	ts.next++
	t := time.AfterFunc(d, func() {
		ts.mu.Lock()
		delete(ts.timers, id)
		ts.mu.Unlock()
		fn()
	})
	ts.timers[id] = t
	ts.mu.Unlock()
	return func() {
		ts.mu.Lock()
		if t, ok := ts.timers[id]; ok {
			t.Stop()
			delete(ts.timers, id)
		}
		ts.mu.Unlock()
	}
}

// stopAll cancels every outstanding timer.
func (ts *timerSet) stopAll() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.stopped = true
	for id, t := range ts.timers {
		t.Stop()
		delete(ts.timers, id)
	}
}
