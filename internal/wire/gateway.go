package wire

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/traceback"
	crand "crypto/rand"
	"encoding/binary"
	mrand "math/rand"
)

// epoch anchors the wire runtime's monotonic clock; filter deadlines
// are durations since process start, matching the simulator's types.
var epoch = time.Now()

func wallNow() sim.Time { return time.Since(epoch) }

func randNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for a security nonce.
		panic("wire: crypto/rand: " + err.Error())
	}
	return binary.BigEndian.Uint64(b[:])
}

// GatewayConfig configures a wire-mode AITF border router.
type GatewayConfig struct {
	Node NodeConfig
	// Timers are the protocol constants; wire demos use sub-second
	// values so a round completes quickly.
	Timers contract.Timers
	// FilterCapacity and ShadowCapacity bound the two pools.
	FilterCapacity, ShadowCapacity int
	// Clients maps directly served client addresses to contracts.
	Clients map[flow.Addr]contract.Contract
	// Default is the contract for requests from unlisted peers.
	Default contract.Contract
	// Secret keys the route-record authenticator.
	Secret []byte
	// HandshakeTimeout bounds the verification handshake.
	HandshakeTimeout time.Duration
	// Trace receives structured protocol events: milestones (temp
	// filter installs, handshakes, stop orders) are recorded into its
	// ring buffer and logged at Info through its slog logger; chattier
	// diagnostics go to the logger at Debug. nil records nothing and
	// logs through slog.Default() (quiet at the default Info level).
	Trace *obs.Trace
	// DataplaneShards partitions the classification engine; 0 picks
	// GOMAXPROCS (rounded up to a power of two by the engine).
	DataplaneShards int
	// Workers > 0 enables the data plane's worker-pool dispatch mode:
	// data packets are classified and forwarded by a pool instead of
	// the socket's receive goroutine. 0 classifies inline.
	Workers int
	// Allocation, when non-nil, enables the §IV filter-table-pressure
	// fallback through the collateral-aware allocator (internal/alloc):
	// when a victim-side temporary filter is rejected for capacity,
	// candidate source-prefix aggregates at the policy's lengths are
	// priced in estimated collateral legit bytes — using the gateway's
	// detection sketch as the traffic view when armed — the cheapest
	// cover is installed, and the install is retried. A one-rung
	// ladder is the fixed /N policy. nil disables aggregation.
	Allocation *alloc.Policy
	// Detect configures the gateway-side sketch detection engine
	// (internal/detect); armed only when ThresholdBps > 0 and
	// DetectFor is non-empty.
	Detect detect.Config
	// DetectFor lists the legacy (non-AITF) client destinations this
	// gateway defends: traffic addressed to them is observed, and on a
	// detection the gateway files the filtering request itself, naming
	// itself as the victim so it can answer the §II-E handshake.
	DetectFor []flow.Addr
	// Cluster, when enabled (Replicas >= 2), runs this gateway as a
	// cluster of k logical replicas (internal/cluster): observations
	// route to each flow's owning replica, merge rounds exchange
	// detection state, and filter mutations feed a replicated log so
	// any replica — including one standing in for a dead peer — can
	// answer for the whole cluster. The dataplane stays the single
	// packet-verdict fast path; the zero value keeps the classic
	// single-engine gateway.
	Cluster cluster.Config
	// Control configures bounded control-plane retransmission. The zero
	// value sends every control message exactly once (the pre-resilience
	// behavior); with MaxAttempts > 1 each logical send carries a txid,
	// is retransmitted on an exponential-backoff ladder until cancelled
	// (a handshake reply) or the attempts run out, and receivers drop
	// txid duplicates without re-running side effects.
	Control RetryConfig
	// SnapshotPath, when non-empty, names the file the gateway writes
	// its durable state to on Close (snapshot-on-drain) and restores
	// from on boot via RestoreFromDisk (restore-on-boot), so a daemon
	// restart mid-attack keeps filtering.
	SnapshotPath string
}

// RetryConfig tunes the wire gateway's control-plane retransmission.
type RetryConfig struct {
	// MaxAttempts bounds total transmissions per logical message;
	// 0 or 1 disables retransmission.
	MaxAttempts int
	// RTO is the first retransmission timeout; it doubles per attempt.
	RTO time.Duration
	// Jitter spreads each timeout by a uniform factor in [0, Jitter)
	// so synchronized losses don't resynchronize the retries.
	Jitter float64
}

// Enabled reports whether the config arms retransmission.
func (c RetryConfig) Enabled() bool { return c.MaxAttempts > 1 && c.RTO > 0 }

// Gateway is the wire-mode border router: it stamps route records on
// transit data, polices filtering requests, verifies them with the
// 3-way handshake, filters, and orders attackers to stop (§II-C).
type Gateway struct {
	mu   sync.Mutex
	cfg  GatewayConfig
	node *Node
	rec  *traceback.Recorder

	// dp is the sharded classification engine (wire-speed filter bank +
	// shadow cache); disp, when non-nil, is its worker-pool front end.
	dp   *dataplane.Engine
	disp *dataplane.Dispatcher

	policers map[flow.Addr]*filter.Policer
	pendings map[flow.Label]*wirePending
	timers   *timerSet

	// det observes traffic toward protected legacy clients; nil when
	// gateway-side detection is off. The engine is internally
	// synchronized, so dispatcher workers feed it without g.mu.
	det       *detect.Engine
	protected map[flow.Addr]bool

	// clu is the gateway-cluster overlay; nil when clustering is off.
	// Like det it is internally synchronized, and when present it owns
	// the sharded detection engines (det stays nil). closed gates the
	// self-re-arming merge ticker so a firing that races Close cannot
	// re-arm after stopAll.
	clu    *cluster.Cluster
	closed atomic.Bool // aitf:atomic

	// Control-plane retransmission and idempotency state, all under mu:
	// nextTxid numbers logical reliable sends, dedup remembers recently
	// seen (source, txid) pairs, and rng jitters the backoff ladders.
	nextTxid uint64
	dedup    map[ctrlKey]time.Time
	rng      *mrand.Rand

	// Control-plane stats mirror the simulator gateway's counters
	// (subset); they are mutated under mu.
	ReqReceived, ReqPoliced, ReqInvalid uint64
	HandshakesStarted                   uint64
	HandshakesOK, HandshakesFailed      uint64
	StopOrders                          uint64
	Aggregations                        uint64
	// CollateralBytes accumulates the allocator's estimated collateral
	// legit bytes per installed aggregate (0 without a traffic view,
	// i.e. with gateway-side detection off); mutated under mu.
	CollateralBytes uint64
	// Detections counts gateway-side sketch detections (attacks
	// flagged on behalf of protected legacy clients); mutated under mu.
	Detections uint64
	// Reliable-messenger counters (under mu): logical sends that got a
	// txid, retransmitted attempts, and received duplicates dropped by
	// the dedup window.
	CtrlReliableSends, CtrlRetransmits, CtrlDupDrops uint64
	// Snapshot/restore counters (under mu).
	SnapshotSaves, SnapshotRestores  uint64
	FiltersRestored, ShadowsRestored uint64
	// Data-plane stats are updated atomically: with dispatch mode on,
	// drops are counted from multiple workers at once.
	FilterDrops uint64
	ShadowHits  uint64
}

// ctrlKey identifies one logical control send inside the dedup window.
type ctrlKey struct {
	src  flow.Addr
	txid uint64
}

// dedupWindow bounds how long a (source, txid) pair is remembered; it
// comfortably outlives any retransmission ladder the RetryConfig can
// produce at wire-demo timer scales.
const dedupWindow = 10 * time.Second

type wirePending struct {
	req    *packet.FilterReq
	nonce  uint64
	cancel func()
	// retx stops the verification query's retransmission ladder; the
	// reply and the timeout both cancel it. Nil when retransmission is
	// off.
	retx func()
	// deadline is when the handshake times out; the drain snapshot
	// stores the remaining window so crash loops cannot extend it.
	deadline time.Time
}

// NewGateway binds the gateway's socket.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = time.Second
	}
	if cfg.FilterCapacity <= 0 {
		cfg.FilterCapacity = 1024
	}
	if cfg.ShadowCapacity <= 0 {
		cfg.ShadowCapacity = 65536
	}
	if cfg.DataplaneShards <= 0 {
		cfg.DataplaneShards = runtime.GOMAXPROCS(0)
	}
	n, err := NewNode(cfg.Node)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		node:     n,
		rec:      traceback.NewRecorder(cfg.Node.Addr, cfg.Secret),
		policers: make(map[flow.Addr]*filter.Policer),
		pendings: make(map[flow.Label]*wirePending),
		timers:   newTimerSet(),
		dedup:    make(map[ctrlKey]time.Time),
		// Backoff jitter only — protocol nonces still come from
		// crypto/rand (randNonce).
		rng: mrand.New(mrand.NewSource(int64(randNonce()))),
	}
	g.dp = dataplane.New(dataplane.Config{
		Shards:         cfg.DataplaneShards,
		FilterCapacity: cfg.FilterCapacity,
		ShadowCapacity: cfg.ShadowCapacity,
		Evict:          filter.RejectNew,
		ShadowLookup:   true,
		Clock:          dataplane.WallClock(epoch),
	})
	if cfg.Workers > 0 {
		g.disp = dataplane.NewDispatcher(g.dp,
			dataplane.DispatcherConfig{Workers: cfg.Workers}, g.finishData)
	}
	if cfg.Detect.Enabled() && len(cfg.DetectFor) > 0 {
		g.protected = make(map[flow.Addr]bool, len(cfg.DetectFor))
		for _, a := range cfg.DetectFor {
			g.protected[a] = true
		}
		if !cfg.Cluster.Enabled() {
			g.det = detect.New(cfg.Detect)
		}
	}
	if cfg.Cluster.Enabled() {
		// The cluster shards the detection config across its replicas;
		// with detection unarmed the replicas still run the replicated
		// filter log.
		det := detect.Config{}
		if g.protected != nil {
			det = cfg.Detect
		}
		g.clu = cluster.New(cfg.Cluster, det)
	}
	n.SetHandler(g)
	g.armClusterMerge()
	return g, nil
}

// Detector exposes the gateway-side detection engine (nil when off).
func (g *Gateway) Detector() *detect.Engine { return g.det }

// Node exposes the transport (for books and addresses).
func (g *Gateway) Node() *Node { return g.node }

// Run starts the gateway.
func (g *Gateway) Run() { g.node.Run() }

// Close stops timers, the worker pool, and the socket; with a
// SnapshotPath configured it then writes the drain snapshot, so the
// state the next boot restores is the quiescent post-drain state.
func (g *Gateway) Close() error {
	g.closed.Store(true)
	g.timers.stopAll()
	err := g.node.Close()
	if g.disp != nil {
		g.disp.Close()
	}
	if g.cfg.SnapshotPath != "" {
		if serr := g.SaveToDisk(); err == nil {
			err = serr
		}
	}
	return err
}

// DataPlane exposes the classification engine.
func (g *Gateway) DataPlane() *dataplane.Engine { return g.dp }

// Filters exposes the filter bank for inspection.
func (g *Gateway) Filters() dataplane.TableView { return g.dp.Table() }

// Shadows exposes the shadow cache for inspection.
func (g *Gateway) Shadows() dataplane.ShadowView { return g.dp.Shadow() }

// logf emits a Debug-level diagnostic through the trace logger. The
// enabled check keeps the Sprintf off every call when debug logging is
// off (the default).
func (g *Gateway) logf(format string, args ...any) {
	if l := g.cfg.Trace.Logger(); l.Enabled(context.Background(), slog.LevelDebug) {
		l.Debug(fmt.Sprintf(format, args...), "node", g.node.Name())
	}
}

// event records a protocol milestone: into the trace ring always, and
// as an Info-level structured log line when enabled.
func (g *Gateway) event(kind string, label flow.Label, detail string) {
	g.cfg.Trace.Info(obs.Event{
		At:     time.Duration(wallNow()),
		Node:   g.node.Name(),
		Kind:   kind,
		Flow:   label.String(),
		Detail: detail,
	})
}

func (g *Gateway) policer(peer flow.Addr) *filter.Policer {
	p, ok := g.policers[peer]
	if !ok {
		c, isClient := g.cfg.Clients[peer]
		if !isClient {
			c = g.cfg.Default
		}
		p = filter.NewPolicer(c.R1, c.R1Burst)
		g.policers[peer] = p
	}
	return p
}

// Handle implements Handler. Control packets take the gateway lock;
// data packets take the concurrent data-plane fast path, either inline
// on the receive goroutine or via the worker pool.
func (g *Gateway) Handle(n *Node, p *packet.Packet, from flow.Addr) {
	if p.IsControl() {
		// Control handling is synchronous and retains at most p.Msg
		// (which Release does not recycle) and copies of its fields, so
		// the shell goes back to the pool on return; Forward marshals
		// before returning.
		defer p.Release()
		g.mu.Lock()
		defer g.mu.Unlock()
		if p.Dst == n.Addr() {
			g.handleControl(p, from)
			return
		}
		if err := n.Forward(p); err != nil {
			g.logf("forward control: %v", err)
		}
		return
	}
	if g.disp != nil {
		if !g.disp.Submit(p) {
			// Queue overflow sheds load, as hardware would; the
			// dispatcher did not retain the packet, so recycle it.
			p.Release()
		}
		return
	}
	g.finishData(p, g.dp.ClassifyTuple(p.Tuple(), int(p.PayloadLen)))
}

// finishData completes the data path for a classified packet. It runs
// on the receive goroutine or on dispatcher workers and must not take
// the gateway lock. The gateway owns data packets decoded by its read
// loop, so every terminal outcome releases the shell back to the
// packet pool (Forward marshals synchronously; nothing retains p).
func (g *Gateway) finishData(p *packet.Packet, v dataplane.Verdict) {
	if v.Drop {
		atomic.AddUint64(&g.FilterDrops, 1)
		p.Release()
		return
	}
	if v.ShadowHit {
		// An "on-off" flow reappeared within T of being filtered; count
		// it (the wire runtime's single round has no escalation ladder).
		atomic.AddUint64(&g.ShadowHits, 1)
	}
	// Gateway-side detection: delivered traffic toward a protected
	// legacy client feeds the sketch engine (internally synchronized,
	// so dispatcher workers land here safely); a crossing makes this
	// gateway file the filtering request itself. Taking g.mu on the
	// rare detection-fired path is safe — finishData is never invoked
	// with the lock held. In dispatch mode, protected-destination
	// packets serialize on the engine's lock; at UDP socket rates the
	// syscall path dominates and this is not the bottleneck, but a
	// deployment defending a line-rate destination should batch
	// observations per worker before reaching for more workers.
	if (g.det != nil || g.clu != nil) && g.protected[p.Dst] {
		if d, ok := g.observeTuple(wallNow(), p.Tuple(), int(p.PayloadLen)); ok {
			g.selfDetect(d, p.Path)
		}
	}
	if p.Dst == g.node.Addr() {
		p.Release()
		return
	}
	if len(p.Path) < packet.MaxPathLen {
		p.RecordRoute(g.node.Addr(), g.rec.Nonce(flow.Tuple{Src: p.Src, Dst: p.Dst}))
	}
	if err := g.node.Forward(p); err != nil {
		g.logf("forward: %v", err)
	}
	p.Release()
}

// retxLadder is one in-flight reliable send's cancellation state;
// mutated under g.mu (timer callbacks retake the lock).
type retxLadder struct {
	cancelled bool
	stop      func()
}

// reliableSend originates one logical control message with up to
// `attempts` transmissions on an exponential-backoff ladder. build
// constructs a fresh packet per attempt — every attempt must carry the
// same identifying state (txid, nonce) so receivers can dedup. The
// returned cancel stops outstanding retransmissions; it must be called
// under g.mu (every call site already holds it). With retransmission
// disabled this degenerates to exactly one send and a no-op cancel, so
// the fault-free hot path pays nothing. Called under mu.
func (g *Gateway) reliableSend(attempts int, build func(txid uint64) *packet.Packet) func() {
	var txid uint64
	if g.cfg.Control.Enabled() && attempts > 1 {
		g.nextTxid++
		txid = g.nextTxid
		g.CtrlReliableSends++
	} else {
		attempts = 1
	}
	send := func() {
		p := build(txid)
		if err := g.node.Originate(p); err != nil {
			g.logf("reliable send: %v", err)
		}
		p.Release() // Originate marshals synchronously
	}
	send()
	if attempts <= 1 {
		return func() {}
	}
	ladder := &retxLadder{}
	var arm func(attempt int, rto time.Duration)
	arm = func(attempt int, rto time.Duration) {
		delay := rto + time.Duration(g.cfg.Control.Jitter*g.rng.Float64()*float64(rto))
		ladder.stop = g.timers.after(delay, func() {
			g.mu.Lock()
			defer g.mu.Unlock()
			if ladder.cancelled {
				return
			}
			g.CtrlRetransmits++
			send()
			if attempt+1 < attempts {
				arm(attempt+1, rto*2)
			}
		})
	}
	arm(1, g.cfg.Control.RTO)
	return func() {
		ladder.cancelled = true
		if ladder.stop != nil {
			ladder.stop()
		}
	}
}

// blindAttempts is the transmission count for sends that have no ack
// to cancel on (relays, stop orders, handshake replies): one redundant
// copy rides the backoff ladder and receiver-side dedup absorbs it
// when the first made it through.
func (g *Gateway) blindAttempts() int {
	if !g.cfg.Control.Enabled() {
		return 1
	}
	return 2
}

// isDup absorbs retransmitted duplicates: a (source, txid) pair seen
// within the dedup window is dropped before any side effect or counter
// runs, making every receive path idempotent. Txid 0 (sender without a
// retransmission engine) bypasses. Called under mu.
func (g *Gateway) isDup(src flow.Addr, txid uint64) bool {
	if txid == 0 {
		return false
	}
	now := time.Now()
	key := ctrlKey{src: src, txid: txid}
	if exp, ok := g.dedup[key]; ok && now.Before(exp) {
		g.CtrlDupDrops++
		return true
	}
	if len(g.dedup) > 4096 {
		for k, exp := range g.dedup {
			if now.After(exp) {
				delete(g.dedup, k)
			}
		}
	}
	g.dedup[key] = now.Add(dedupWindow)
	return false
}

func (g *Gateway) handleControl(p *packet.Packet, from flow.Addr) {
	switch m := p.Msg.(type) {
	case *packet.FilterReq:
		g.handleFilterReq(p, m, from)
	case *packet.VerifyQuery:
		g.handleVerifyQuery(p, m)
	case *packet.VerifyReply:
		g.handleVerifyReply(m)
	}
}

// handleVerifyQuery answers §II-E verification queries for flows this
// gateway itself asked to have blocked on a legacy client's behalf:
// the shadow log is the gateway's "I really requested this" memory,
// exactly as a victim host's wanted-set is. Called under mu.
func (g *Gateway) handleVerifyQuery(p *packet.Packet, m *packet.VerifyQuery) {
	if g.protected == nil {
		return // never a self-requesting victim: stay silent
	}
	label := m.Flow.Canonical()
	if _, live := g.dp.ShadowGet(label, wallNow()); !live {
		return
	}
	g.event("handshake-reply", label, "to attacker gw "+p.Src.String())
	gw, querier, mflow, nonce := g.node.Addr(), p.Src, m.Flow, m.Nonce
	g.reliableSend(g.blindAttempts(), func(uint64) *packet.Packet {
		// Replies dedup by nonce at the querier; a duplicate is a no-op.
		return packet.NewControl(gw, querier,
			&packet.VerifyReply{Flow: mflow, Nonce: nonce})
	})
}

// selfDetect files the filtering request a protected legacy client
// cannot file itself: temporary filter, shadow log, and the relay to
// the attacker's gateway with the evidence the offending packet
// carried, completed by this gateway's own stamp. The gateway names
// itself as the victim so the attacker-side handshake query comes back
// here (handleVerifyQuery).
func (g *Gateway) selfDetect(d detect.Detection, path []packet.RREntry) {
	now := wallNow()
	label := d.Label.Canonical()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.Detections++
	g.event("attack-detected", label, fmt.Sprintf("est %dB for protected client %v", d.EstBytes, d.Dst))
	if err := g.installWithAggregation(label, now, now+sim.Time(g.cfg.Timers.Ttmp)); err != nil {
		// The wire-speed table is full even after aggregation: the
		// temporary filter is lost, but the shadow log and the
		// attacker-side request below must still go out (as in the
		// simulator gateway). The engine flags each flow once and the
		// continuing flood keeps it from re-arming, so bailing here
		// would silence detection of this flow forever.
		g.logf("temp filter: %v", err)
	}
	g.dp.LogShadow(label, g.node.Addr(), now, now+sim.Time(g.cfg.Timers.T))

	evidence := make([]packet.RREntry, 0, len(path)+1)
	evidence = append(evidence, path...)
	evidence = append(evidence, packet.RREntry{
		Router: g.node.Addr(),
		Nonce:  g.rec.Nonce(flow.Tuple{Src: label.Src, Dst: label.Dst}),
	})
	target, err := traceback.AttackPath(evidence).AttackerGateway()
	if err != nil || target == g.node.Addr() {
		// No attacker-side AITF node on the recorded path: our own
		// temporary filter is the whole defense, as in the simulator's
		// exhausted-ladder case.
		return
	}
	g.event("request-sent", label, "gateway-detected relay to attacker gw "+target.String())
	gw, dlabel, dur := g.node.Addr(), d.Label, g.cfg.Timers.T
	g.reliableSend(g.blindAttempts(), func(txid uint64) *packet.Packet {
		return packet.NewControl(gw, target, &packet.FilterReq{
			Stage:    packet.StageToAttackerGW,
			Flow:     dlabel,
			Duration: dur,
			Round:    1,
			Victim:   gw,
			Evidence: evidence,
			Txid:     txid,
		})
	})
}

func (g *Gateway) handleFilterReq(p *packet.Packet, m *packet.FilterReq, from flow.Addr) {
	now := wallNow()
	if g.isDup(p.Src, m.Txid) {
		return
	}
	g.ReqReceived++
	if !g.policer(from).Allow(now) {
		g.ReqPoliced++
		g.event("request-policed", m.Flow.Canonical(), "from "+from.String())
		return
	}
	label := m.Flow.Canonical()
	switch m.Stage {
	case packet.StageToVictimGW:
		// Victim-side: verify our own stamp, block temporarily, log
		// the shadow, and relay to the attacker's gateway.
		evidence := traceback.AttackPath(m.Evidence)
		if !g.rec.Verify(evidence, flow.Tuple{Src: label.Src, Dst: label.Dst}) {
			g.ReqInvalid++
			g.event("request-invalid", label, "bad evidence")
			return
		}
		if err := g.installWithAggregation(label, now, now+sim.Time(g.cfg.Timers.Ttmp)); err != nil {
			g.logf("temp filter: %v", err)
			return
		}
		g.dp.LogShadow(label, m.Victim, now, now+sim.Time(g.cfg.Timers.T))
		target, err := evidence.AttackerGateway()
		if err != nil {
			return
		}
		g.event("temp-filter-installed", label, "relaying to attacker gw "+target.String())
		req := *m
		req.Stage = packet.StageToAttackerGW
		gw := g.node.Addr()
		g.reliableSend(g.blindAttempts(), func(txid uint64) *packet.Packet {
			r := req
			r.Txid = txid
			return packet.NewControl(gw, target, &r)
		})
	case packet.StageToAttackerGW:
		// Attacker-side: verify our stamp then handshake the victim.
		if !g.rec.Verify(traceback.AttackPath(m.Evidence), flow.Tuple{Src: label.Src, Dst: label.Dst}) {
			g.ReqInvalid++
			g.event("request-invalid", label, "bad evidence")
			return
		}
		if prev, ok := g.pendings[label.Key()]; ok {
			// The superseded handshake resolves as failed, keeping the
			// started = ok + failed + pending ledger balanced.
			prev.cancel()
			if prev.retx != nil {
				prev.retx()
			}
			g.HandshakesFailed++
			g.event("handshake-failed", label, "superseded by a fresh request")
		}
		g.HandshakesStarted++
		pend := &wirePending{req: m, nonce: randNonce(),
			deadline: time.Now().Add(g.cfg.HandshakeTimeout)}
		g.pendings[label.Key()] = pend
		g.event("handshake-query", label, "to victim "+m.Victim.String())
		gw, victim, mflow, nonce := g.node.Addr(), m.Victim, m.Flow, pend.nonce
		pend.retx = g.reliableSend(g.cfg.Control.MaxAttempts, func(uint64) *packet.Packet {
			// The nonce is the dedup identity here: a duplicate query just
			// elicits another (idempotent) reply.
			return packet.NewControl(gw, victim,
				&packet.VerifyQuery{Flow: mflow, Nonce: nonce})
		})
		pend.cancel = g.timers.after(g.cfg.HandshakeTimeout, func() {
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.pendings[label.Key()] == pend {
				delete(g.pendings, label.Key())
				if pend.retx != nil {
					pend.retx()
				}
				g.HandshakesFailed++
				g.event("handshake-failed", label, "timeout")
			}
		})
	}
}

// installWithAggregation is the victim-side install path with the §IV
// fallback: on ErrTableFull (and with aggregation enabled), the
// allocator prices candidate covers at every policy length in
// estimated collateral legit bytes (via the detection sketch when
// armed), the cheapest cover freeing a slot is installed, and the
// install is retried once. Called under mu.
func (g *Gateway) installWithAggregation(label flow.Label, now, exp sim.Time) error {
	err := g.dp.Install(label, now, exp)
	if err == nil {
		g.clusterRecord(cluster.OpInstall, label, exp, now)
		return nil
	}
	if !errors.Is(err, filter.ErrTableFull) || g.cfg.Allocation == nil {
		return err
	}
	cfg := alloc.Config{Policy: *g.cfg.Allocation}
	if g.clu != nil && g.protected != nil {
		// The cluster's merged detection view prices candidates —
		// including traffic only a dead replica's frozen summary saw.
		cfg.Traffic = g.clu
		cfg.WindowSeconds = g.clu.DetectionWindow().Seconds()
	} else if g.det != nil {
		cfg.Traffic = alloc.DetectTraffic{Eng: g.det}
		cfg.WindowSeconds = g.det.Config().Window.Seconds()
	}
	freed := false
	for _, pick := range alloc.Choose(g.dp.FilterEntries(), 1, cfg).Picks {
		replaced, aerr := g.dp.Aggregate(pick.Aggregate, pick.ChildLabels(), now, pick.MaxExpiry)
		if aerr != nil || replaced < 2 {
			continue
		}
		freed = true
		g.Aggregations++
		g.CollateralBytes += uint64(pick.LegitBytes)
		g.clusterRecord(cluster.OpAggregate, pick.Aggregate, pick.MaxExpiry, now)
		g.event("aggregated", pick.Aggregate,
			fmt.Sprintf("table full: coalesced %d siblings, covers %d sources, est %dB/window collateral",
				replaced, pick.CoveredAddrs(), uint64(pick.LegitBytes)))
	}
	if !freed {
		return err
	}
	if ierr := g.dp.Install(label, now, exp); ierr != nil {
		return ierr
	}
	g.clusterRecord(cluster.OpInstall, label, exp, now)
	return nil
}

func (g *Gateway) handleVerifyReply(m *packet.VerifyReply) {
	now := wallNow()
	label := m.Flow.Canonical()
	pend, ok := g.pendings[label.Key()]
	if !ok || pend.nonce != m.Nonce {
		return // completed, superseded, or forged: duplicates land here
	}
	pend.cancel()
	if pend.retx != nil {
		pend.retx()
	}
	delete(g.pendings, label.Key())
	g.HandshakesOK++
	if err := g.dp.Install(label, now, now+sim.Time(g.cfg.Timers.T)); err != nil {
		g.logf("filter: %v", err)
		return
	}
	g.clusterRecord(cluster.OpInstall, label, now+sim.Time(g.cfg.Timers.T), now)
	g.event("handshake-ok", label, "filtering for "+g.cfg.Timers.T.String())
	// Tell the attacking client to stop (§II-C ii).
	g.StopOrders++
	g.event("stop-order", label, "to attacker "+label.Src.String())
	gw, mflow, dur := g.node.Addr(), m.Flow, g.cfg.Timers.T
	g.reliableSend(g.blindAttempts(), func(txid uint64) *packet.Packet {
		return packet.NewControl(gw, label.Src, &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     mflow,
			Duration: dur,
			Victim:   gw,
			Txid:     txid,
		})
	})
}

var _ Handler = (*Gateway)(nil)
