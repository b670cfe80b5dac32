package wire

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/core"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// epoch anchors the wire runtime's monotonic clock; protocol times are
// durations since process start, matching the simulator's types.
var epoch = time.Now()

func wallNow() sim.Time { return time.Since(epoch) }

// GatewayConfig configures a wire-mode AITF border router: the
// protocol configuration the core engine runs, plus the transport and
// the daemon's observability and persistence knobs. Start from
// DefaultGatewayConfig.
type GatewayConfig struct {
	Node NodeConfig
	core.GatewayConfig
	// Trace receives the engine's protocol events: each is recorded
	// into its ring buffer and logged through its slog logger (Info for
	// milestones, Debug for per-packet and retransmission chatter). nil
	// records nothing.
	Trace *obs.Trace
	// SnapshotPath, when non-empty, names the file the gateway writes
	// its durable state to on Close (snapshot-on-drain) and restores
	// from on boot via RestoreFromDisk (restore-on-boot), so a daemon
	// restart mid-attack keeps filtering.
	SnapshotPath string
}

// DefaultGatewayConfig returns core's cooperative gateway defaults
// sized for a daemon: a 1024-slot filter table, a 65536-entry shadow
// cache, and one dataplane shard per GOMAXPROCS.
func DefaultGatewayConfig() GatewayConfig {
	c := core.DefaultGatewayConfig()
	c.FilterCapacity = 1024
	c.ShadowCapacity = 65536
	c.DataplaneShards = runtime.GOMAXPROCS(0)
	return GatewayConfig{GatewayConfig: c}
}

// Gateway is the wire-mode border router: a UDP transport around the
// core protocol engine. One mutex serialises every call into the
// engine — packets, timer firings, snapshots, and replica kills — so
// the engine runs exactly as it does on the simulator's event loop.
type Gateway struct {
	mu     sync.Mutex
	core   *core.Gateway
	cfg    GatewayConfig
	node   *Node
	timers *timerSet
	rng    *rand.Rand // under mu, like every engine call that draws from it

	// Snapshot/restore counters; the engine's own counters live in
	// core.GatewayStats.
	snapshotSaves, snapshotRestores  atomic.Uint64
	filtersRestored, shadowsRestored atomic.Uint64
}

// NewGateway binds the gateway's socket and starts its engine.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	n, err := NewNode(cfg.Node)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:    cfg,
		node:   n,
		timers: newTimerSet(),
		// The §II-E handshake nonce must stay unpredictable to an
		// off-path forger, so the engine's random source reads
		// crypto/rand.
		rng:  rand.New(cryptoSource{}),
		core: core.NewGateway(cfg.GatewayConfig),
	}
	var tr core.Tracer
	if cfg.Trace != nil {
		tr = g.record
	}
	g.mu.Lock()
	g.core.Start(wireEnv{g}, tr)
	g.mu.Unlock()
	n.SetHandler(g)
	return g, nil
}

// Detector exposes the gateway-side detection engine (nil when off).
func (g *Gateway) Detector() *detect.Engine { return g.core.Detector() }

// Cluster exposes the gateway's cluster overlay (nil when disabled).
func (g *Gateway) Cluster() *cluster.Cluster { return g.core.Cluster() }

// Node exposes the transport (for books and addresses).
func (g *Gateway) Node() *Node { return g.node }

// Run starts the gateway.
func (g *Gateway) Run() { g.node.Run() }

// Close halts the engine, stops its timers and the socket; with a
// SnapshotPath configured it then writes the drain snapshot, so the
// state the next boot restores is the quiescent post-drain state.
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.core.Halt()
	g.mu.Unlock()
	g.timers.stopAll()
	err := g.node.Close()
	if g.cfg.SnapshotPath != "" {
		if serr := g.SaveToDisk(); err == nil {
			err = serr
		}
	}
	return err
}

// DataPlane exposes the classification engine.
func (g *Gateway) DataPlane() *dataplane.Engine { return g.core.DataPlane() }

// Filters exposes the filter bank for inspection.
func (g *Gateway) Filters() dataplane.TableView { return g.core.Filters() }

// Shadows exposes the shadow cache for inspection.
func (g *Gateway) Shadows() dataplane.ShadowView { return g.core.Shadows() }

// Handle implements Handler: the packet goes to the engine under the
// gateway lock, and the engine consumes it.
func (g *Gateway) Handle(_ *Node, p *packet.Packet, from flow.Addr) {
	g.mu.Lock()
	g.core.Handle(p, from)
	g.mu.Unlock()
}

// KillReplica kills one logical cluster replica mid-run (see
// core.Gateway.KillReplica).
func (g *Gateway) KillReplica(id int) (inherited, lost int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.core.KillReplica(id)
}

// PendingHandshakes returns the number of in-flight attacker-side
// handshakes (for the started = ok + failed + pending ledger).
func (g *Gateway) PendingHandshakes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.core.PendingHandshakes()
}

// logf emits a Debug-level diagnostic through the trace logger. The
// enabled check keeps the Sprintf off every call when debug logging is
// off (the default).
func (g *Gateway) logf(format string, args ...any) {
	if l := g.cfg.Trace.Logger(); l.Enabled(context.Background(), slog.LevelDebug) {
		l.Debug(fmt.Sprintf(format, args...), "node", g.node.Name())
	}
}

// record is the engine's tracer: every protocol event goes into the
// trace ring, milestones log at Info and chatter at Debug.
func (g *Gateway) record(e core.Event) {
	ev := obs.Event{
		At:     time.Duration(e.T),
		Node:   e.Node,
		Kind:   e.Kind.String(),
		Flow:   e.Flow.String(),
		Detail: e.Detail,
	}
	switch e.Kind {
	case core.EvShadowHit, core.EvCtrlRetransmit, core.EvCtrlDupDrop:
		g.cfg.Trace.Debug(ev)
	default:
		g.cfg.Trace.Info(ev)
	}
}

// wireEnv is the engine's port onto the UDP transport: wall-clock time,
// timers that take the gateway lock before running, and sends that
// marshal synchronously and recycle the packet.
type wireEnv struct{ g *Gateway }

func (e wireEnv) Addr() flow.Addr  { return e.g.node.Addr() }
func (e wireEnv) Name() string     { return e.g.node.Name() }
func (e wireEnv) Now() sim.Time    { return wallNow() }
func (e wireEnv) Rand() *rand.Rand { return e.g.rng }

func (e wireEnv) After(d sim.Time, fn func()) core.Timer {
	t := &wireTimer{}
	t.stop = e.g.timers.after(d, func() {
		e.g.mu.Lock()
		defer e.g.mu.Unlock()
		if !t.cancelled {
			fn()
		}
	})
	return t
}

func (e wireEnv) At(at sim.Time, fn func()) core.Timer { return e.After(at-wallNow(), fn) }

func (e wireEnv) NextHop(dst flow.Addr) (flow.Addr, bool) {
	hop, ok := e.g.node.cfg.NextHop[dst]
	return hop, ok
}

func (e wireEnv) Originate(p *packet.Packet) {
	if err := e.g.node.Originate(p); err != nil {
		e.g.logf("originate: %v", err)
	}
	p.Release()
}

func (e wireEnv) Forward(p *packet.Packet) bool {
	err := e.g.node.Forward(p)
	p.Release()
	if err != nil {
		e.g.logf("forward: %v", err)
		return false
	}
	return true
}

// wireTimer is one engine timer. cancelled is read and written under
// the gateway lock: the engine cancels only while holding it, and the
// firing callback checks it after taking it, so a timer cancelled while
// its callback waits on the lock never runs.
type wireTimer struct {
	stop      func()
	cancelled bool
}

func (t *wireTimer) Cancel() {
	t.cancelled = true
	t.stop()
}

// cryptoSource is a math/rand source reading crypto/rand.
type cryptoSource struct{}

func (cryptoSource) Int63() int64 { return int64(cryptoSource{}.Uint64() >> 1) }
func (cryptoSource) Seed(int64)   {}
func (cryptoSource) Uint64() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for a security nonce.
		panic("wire: crypto/rand: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

var _ Handler = (*Gateway)(nil)
