package wire

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/traceback"
)

// netDial opens a plain UDP socket toward addr (for garbage injection).
func netDial(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, ua)
}

// testTimers are sub-second so a full round completes within the test.
func testTimers() contract.Timers {
	return contract.Timers{
		T:       2 * time.Second,
		Ttmp:    500 * time.Millisecond,
		Grace:   100 * time.Millisecond,
		Penalty: 2 * time.Second,
	}
}

// chainRoutes routes each destination on a linear chain of nodes
// through self's neighbour on that side.
func chainRoutes(chain []flow.Addr, self flow.Addr) map[flow.Addr]flow.Addr {
	pos := -1
	for i, a := range chain {
		if a == self {
			pos = i
		}
	}
	nh := make(map[flow.Addr]flow.Addr)
	for i, a := range chain {
		if i < pos {
			nh[a] = chain[pos-1]
		} else if i > pos {
			nh[a] = chain[pos+1]
		}
	}
	return nh
}

// testGatewayConfig is the daemon default gateway with test timers,
// the given routes, and one end-host contract per client.
func testGatewayConfig(name string, addr flow.Addr, routes map[flow.Addr]flow.Addr, clients ...flow.Addr) GatewayConfig {
	cfg := DefaultGatewayConfig()
	cfg.Node = NodeConfig{Addr: addr, Name: name, NextHop: routes}
	cfg.Timers = testTimers()
	cfg.Secret = []byte(name + "-secret")
	for _, c := range clients {
		cfg.Clients[c] = contract.DefaultEndHost()
	}
	return cfg
}

// stamp is the route-record entry the gateway at router, keyed with
// secret, puts on packets of the (src, dst) pair.
func stamp(router flow.Addr, secret []byte, src, dst flow.Addr) packet.RREntry {
	return packet.RREntry{
		Router: router,
		Nonce:  traceback.NewRecorder(router, secret).Nonce(flow.Tuple{Src: src, Dst: dst}),
	}
}

// bindBook points every node's book at every node's socket.
func bindBook(nodes ...*Node) {
	book := Book{}
	for _, n := range nodes {
		book[n.Addr()] = n.UDPAddr().String()
	}
	for _, n := range nodes {
		n.SetBook(book)
	}
}

// flood sends ~100 kB/s from h to dst until the test ends.
func flood(t *testing.T, h *Host, dst flow.Addr) {
	stop := make(chan struct{})
	done := make(chan struct{})
	t.Cleanup(func() { close(stop); <-done })
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				h.SendData(dst, flow.ProtoUDP, 4000, 80, 500)
			}
		}
	}()
}

// rig is a live four-node deployment over UDP loopback:
//
//	victim — v_gw — a_gw — attacker
type rig struct {
	victim, attacker *Host
	vgw, agw         *Gateway
}

func (r *rig) close() {
	r.victim.Close()
	r.attacker.Close()
	r.vgw.Close()
	r.agw.Close()
}

func buildRig(t *testing.T, attackerCompliant bool) *rig {
	t.Helper()
	return buildRigCtrl(t, attackerCompliant, core.ControlConfig{})
}

// buildRigCtrl is buildRig with the gateways' control-plane
// retransmission engine configured.
func buildRigCtrl(t *testing.T, attackerCompliant bool, ctrl core.ControlConfig) *rig {
	t.Helper()
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgwA      = flow.MakeAddr(10, 0, 0, 1)
		agwA      = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	tm := testTimers()
	chain := []flow.Addr{victimA, vgwA, agwA, attackerA}
	routes := func(self flow.Addr) map[flow.Addr]flow.Addr { return chainRoutes(chain, self) }

	vcfg := testGatewayConfig("v_gw", vgwA, routes(vgwA), victimA)
	vcfg.Control = ctrl
	vgw, err := NewGateway(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := testGatewayConfig("a_gw", agwA, routes(agwA), attackerA)
	acfg.Control = ctrl
	agw, err := NewGateway(acfg)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewHost(HostConfig{
		Node:         NodeConfig{Addr: victimA, Name: "victim", NextHop: routes(victimA)},
		Gateway:      vgwA,
		Timers:       tm,
		DetectBps:    20_000,
		DetectWindow: 100 * time.Millisecond,
		Compliant:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := NewHost(HostConfig{
		Node:      NodeConfig{Addr: attackerA, Name: "attacker", NextHop: routes(attackerA)},
		Gateway:   agwA,
		Timers:    tm,
		Compliant: attackerCompliant,
	})
	if err != nil {
		t.Fatal(err)
	}

	bindBook(victim.Node(), attacker.Node(), vgw.Node(), agw.Node())

	victim.Run()
	attacker.Run()
	vgw.Run()
	agw.Run()
	r := &rig{victim: victim, attacker: attacker, vgw: vgw, agw: agw}
	t.Cleanup(r.close)
	return r
}

// waitUntil polls cond every 10 ms up to timeout.
func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestLiveRoundOverUDP(t *testing.T) {
	r := buildRig(t, true)
	// Attacker floods ~100 KB/s until the protocol stops it.
	flood(t, r.attacker, r.victim.Node().Addr())

	// The full AITF round must complete: detection, temp filter at
	// v_gw, handshake, T filter at a_gw, stop order, compliance.
	waitUntil(t, 5*time.Second, func() bool {
		r.victim.mu.Lock()
		requests := r.victim.RequestsSent
		r.victim.mu.Unlock()
		return requests > 0
	}, "victim never sent a filtering request")

	waitUntil(t, 5*time.Second, func() bool {
		return r.agw.Stats().HandshakesOK > 0
	}, "handshake never completed at the attacker's gateway")

	waitUntil(t, 5*time.Second, func() bool {
		r.attacker.mu.Lock()
		defer r.attacker.mu.Unlock()
		return r.attacker.StopOrdersReceived > 0
	}, "attacker never received a stop order")

	waitUntil(t, 5*time.Second, func() bool {
		r.attacker.mu.Lock()
		defer r.attacker.mu.Unlock()
		return r.attacker.SuppressedSends > 0
	}, "compliant attacker never suppressed sends")

	if got := r.agw.Filters().Len(); got == 0 {
		t.Fatal("attacker gateway holds no filter after the round")
	}
}

func TestLiveForgedRequestDiesOverUDP(t *testing.T) {
	r := buildRig(t, true)

	// Attacker forges a StageToAttackerGW request against a fictitious
	// legit flow, addressed to its own gateway, with fabricated
	// evidence (it has no router secret).
	legit := flow.MakeAddr(10, 0, 0, 7)
	victimAddr := r.victim.Node().Addr()
	req := &packet.FilterReq{
		Stage:    packet.StageToAttackerGW,
		Flow:     flow.PairLabel(legit, victimAddr),
		Duration: time.Minute,
		Round:    1,
		Victim:   victimAddr,
		Evidence: []packet.RREntry{{Router: r.agw.Node().Addr(), Nonce: 0xbad}},
	}
	p := packet.NewControl(r.attacker.Node().Addr(), r.agw.Node().Addr(), req)
	if err := r.attacker.Node().Originate(p); err != nil {
		t.Fatal(err)
	}

	waitUntil(t, 3*time.Second, func() bool {
		return r.agw.Stats().ReqInvalid > 0
	}, "forged request was not rejected")
	if r.agw.Filters().Len() != 0 {
		t.Fatal("forged request produced a filter")
	}
}

func TestLivePolicing(t *testing.T) {
	r := buildRig(t, true)
	// Hammer v_gw with requests far beyond the contract rate; the
	// policer must drop the excess.
	victimAddr := r.victim.Node().Addr()
	for i := 0; i < 500; i++ {
		req := &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     flow.PairLabel(flow.Addr(0xC0000000+uint32(i)), victimAddr),
			Duration: time.Minute,
			Round:    1,
			Victim:   victimAddr,
		}
		p := packet.NewControl(victimAddr, r.vgw.Node().Addr(), req)
		if err := r.victim.Node().Originate(p); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 3*time.Second, func() bool {
		return r.vgw.Stats().ReqPoliced > 0
	}, "request flood was never policed")
}

// TestForgedPathPolicedAsOneNeighbour: the neighbour a request is
// policed under is the socket it came from, not the route record it
// carries. The same flood of filtering requests from one socket is
// policed alike whether or not each request names a different fake
// previous router, and either way the gateway holds one policer.
func TestForgedPathPolicedAsOneNeighbour(t *testing.T) {
	const n = 200
	run := func(forge bool) GatewayStats {
		r := buildRig(t, true)
		victimAddr := r.victim.Node().Addr()
		for i := 0; i < n; i++ {
			p := packet.NewControl(victimAddr, r.vgw.Node().Addr(), &packet.FilterReq{
				Stage:    packet.StageToVictimGW,
				Flow:     flow.PairLabel(flow.Addr(0xC0000000+uint32(i)), victimAddr),
				Duration: time.Minute,
				Round:    1,
				Victim:   victimAddr,
			})
			if forge {
				p.RecordRoute(flow.Addr(0xAC100000+uint32(i)), uint64(i))
			}
			if err := r.victim.Node().Originate(p); err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
		// Wait for the socket to drain: the count stops moving.
		var st GatewayStats
		waitUntil(t, 3*time.Second, func() bool {
			prev := st.ReqReceived
			time.Sleep(50 * time.Millisecond)
			st = r.vgw.Stats()
			return st.ReqReceived > 0 && st.ReqReceived == prev
		}, "requests never arrived")
		r.vgw.mu.Lock()
		policers := r.vgw.core.Policers()
		r.vgw.mu.Unlock()
		if policers != 1 {
			t.Fatalf("forge=%v: %d policers for one sending socket, want 1", forge, policers)
		}
		return st
	}
	plain, forged := run(false), run(true)
	// The contract admits a burst of R1Burst plus R1 per second; at
	// most a few dozen of the flood can pass however slowly it runs.
	for _, st := range []GatewayStats{plain, forged} {
		if passed := st.ReqReceived - st.ReqPoliced; passed > 50 {
			t.Fatalf("policing let %d of %d requests through: %+v", passed, st.ReqReceived, st.GatewayStats)
		}
	}
	t.Logf("policed: plain %d/%d, forged %d/%d",
		plain.ReqPoliced, plain.ReqReceived, forged.ReqPoliced, forged.ReqReceived)
}

func TestBookResolveErrors(t *testing.T) {
	b := Book{flow.MakeAddr(1, 1, 1, 1): "127.0.0.1:9"}
	if _, err := b.Resolve(flow.MakeAddr(1, 1, 1, 1)); err != nil {
		t.Fatalf("Resolve known: %v", err)
	}
	if _, err := b.Resolve(flow.MakeAddr(2, 2, 2, 2)); err == nil {
		t.Fatal("Resolve unknown succeeded")
	}
}

func TestNodeForwardErrors(t *testing.T) {
	n, err := NewNode(NodeConfig{Addr: flow.MakeAddr(1, 1, 1, 1), Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	p := packet.NewData(n.Addr(), flow.MakeAddr(9, 9, 9, 9), flow.ProtoUDP, 1, 2, 10)
	if err := n.Forward(p); err == nil {
		t.Fatal("Forward without route succeeded")
	}
	p2 := packet.NewData(n.Addr(), flow.MakeAddr(9, 9, 9, 9), flow.ProtoUDP, 1, 2, 10)
	p2.TTL = 0
	if err := n.Forward(p2); err == nil {
		t.Fatal("Forward with TTL 0 succeeded")
	}
}

func TestTimerSetCancel(t *testing.T) {
	ts := newTimerSet()
	fired := make(chan struct{}, 2)
	cancel := ts.after(30*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	ts.after(30*time.Millisecond, func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("second timer never fired")
	}
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(100 * time.Millisecond):
	}
	ts.stopAll()
}

func TestGarbageDatagramsIgnored(t *testing.T) {
	r := buildRig(t, true)
	// Blast raw garbage at the victim gateway's socket: the read loop
	// must discard it and keep serving.
	conn := r.attacker.Node()
	ua := r.vgw.Node().UDPAddr()
	raw, err := netDial(ua.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	for i := 0; i < 50; i++ {
		raw.Write([]byte{0xde, 0xad, byte(i), 0xbe, 0xef})
	}
	_ = conn

	// The gateway still works: run a normal round.
	flood(t, r.attacker, r.victim.Node().Addr())
	waitUntil(t, 5*time.Second, func() bool {
		return r.agw.Stats().HandshakesOK > 0
	}, "gateway wedged by garbage datagrams")
}

// TestLiveGatewayDetectionOverUDP runs the gateway-defends-legacy-host
// scenario over real sockets: the victim host has NO detector of its
// own (detect_bps 0 — a legacy, non-AITF receiver), its gateway runs
// the sketch engine for it, and the full round — detection at v_gw,
// relay, handshake answered by v_gw itself, T filter at a_gw, stop
// order — completes without the victim sending a single request.
func TestLiveGatewayDetectionOverUDP(t *testing.T) {
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgwA      = flow.MakeAddr(10, 0, 0, 1)
		agwA      = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	tm := testTimers()
	chain := []flow.Addr{victimA, vgwA, agwA, attackerA}
	routes := func(self flow.Addr) map[flow.Addr]flow.Addr { return chainRoutes(chain, self) }

	vcfg := testGatewayConfig("v_gw", vgwA, routes(vgwA), victimA)
	vcfg.Detection = &core.GatewayDetection{
		Config:    detect.Config{ThresholdBps: 20_000, Window: 100 * time.Millisecond},
		Protected: []flow.Addr{victimA},
	}
	vgw, err := NewGateway(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	agw, err := NewGateway(testGatewayConfig("a_gw", agwA, routes(agwA), attackerA))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := NewHost(HostConfig{ // legacy: no detection of its own
		Node:      NodeConfig{Addr: victimA, Name: "victim", NextHop: routes(victimA)},
		Gateway:   vgwA,
		Timers:    tm,
		Compliant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := NewHost(HostConfig{
		Node:      NodeConfig{Addr: attackerA, Name: "attacker", NextHop: routes(attackerA)},
		Gateway:   agwA,
		Timers:    tm,
		Compliant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bindBook(victim.Node(), attacker.Node(), vgw.Node(), agw.Node())
	victim.Run()
	attacker.Run()
	vgw.Run()
	agw.Run()
	t.Cleanup(func() {
		victim.Close()
		attacker.Close()
		vgw.Close()
		agw.Close()
	})

	flood(t, attacker, victimA)

	waitUntil(t, 5*time.Second, func() bool {
		return vgw.Stats().Detections > 0
	}, "victim gateway never detected the flood")

	waitUntil(t, 5*time.Second, func() bool {
		return agw.Stats().HandshakesOK > 0
	}, "handshake never completed (v_gw must answer as the victim)")

	waitUntil(t, 5*time.Second, func() bool {
		attacker.mu.Lock()
		defer attacker.mu.Unlock()
		return attacker.StopOrdersReceived > 0
	}, "attacker never received a stop order")

	if got := agw.Filters().Len(); got == 0 {
		t.Fatal("attacker gateway holds no filter after the gateway-detected round")
	}
	victim.mu.Lock()
	requests := victim.RequestsSent
	victim.mu.Unlock()
	if requests != 0 {
		t.Fatalf("legacy victim sent %d requests itself", requests)
	}
}

// tableFullInstall boots a gateway from the given gateway JSON object
// (plus one client), fills its three-slot table with three /28
// siblings, and has the client file one more, unrelated filtering
// request, whose temporary filter must free a slot by aggregation. It
// returns the aggregate prefix lengths left installed.
func tableFullInstall(t *testing.T, gatewayObj string) []uint8 {
	t.Helper()
	fc, err := ParseFileConfig([]byte(`{
		"role":"gateway","addr":"10.0.0.1","listen":"127.0.0.1:0",
		"routes":{"9.0.0.2":"9.0.0.2"},
		"gateway":` + gatewayObj[:len(gatewayObj)-1] + `,"clients":["9.0.0.2"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	gcfg, err := fc.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateway(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	dp := g.DataPlane()
	now := wallNow()
	exp := now + 10*time.Second
	victim := flow.MakeAddr(9, 0, 0, 2)
	for i := byte(1); i <= 3; i++ {
		if err := dp.Install(flow.PairLabel(flow.MakeAddr(20, 0, 0, i), victim), now, exp); err != nil {
			t.Fatal(err)
		}
	}
	attacker := flow.MakeAddr(30, 0, 0, 1)
	fresh := flow.PairLabel(attacker, victim)
	g.Handle(g.Node(), packet.NewControl(victim, g.Node().Addr(), &packet.FilterReq{
		Stage:    packet.StageToVictimGW,
		Flow:     fresh,
		Victim:   victim,
		Evidence: []packet.RREntry{stamp(g.Node().Addr(), gcfg.Secret, attacker, victim)},
	}), victim)
	if st := g.Stats(); st.ReqAccepted != 1 || st.Aggregations != 1 {
		t.Fatalf("accepted %d requests with %d aggregations, want 1 and 1", st.ReqAccepted, st.Aggregations)
	}
	if _, ok := dp.Table().Lookup(fresh, wallNow()); !ok {
		t.Fatal("triggering filter not installed after aggregation")
	}
	var lens []uint8
	for _, fe := range dp.FilterEntries() {
		if fe.Label.SrcPrefixLen != 0 {
			lens = append(lens, fe.Label.SrcPrefixLen)
		}
	}
	return lens
}

// TestInstallWithAggregationAllocator drives the wire gateway's
// table-full temporary-filter install with the collateral-aware allocator: the
// siblings must be coalesced under a /28 cover (the deepest,
// least-collateral rung) — not the /24 the fixed policy would have
// taken.
func TestInstallWithAggregationAllocator(t *testing.T) {
	lens := tableFullInstall(t, `{"filter_capacity":3,"collateral_alloc":true,"alloc_prefix_lens":[28,24]}`)
	if len(lens) != 1 || lens[0] != 28 {
		t.Fatalf("aggregate prefix lengths %v, want one /28", lens)
	}
}

// TestInstallWithAggregationFixed: aggregation_prefix_len runs the same
// path as the one-rung ladder, so the siblings land under a /24 cover.
func TestInstallWithAggregationFixed(t *testing.T) {
	lens := tableFullInstall(t, `{"filter_capacity":3,"aggregation_prefix_len":24}`)
	if len(lens) != 1 || lens[0] != 24 {
		t.Fatalf("aggregate prefix lengths %v, want one /24", lens)
	}
}

// countingSink counts data packets addressed to it, by source.
type countingSink struct{ ok, blocked atomic.Uint64 }

func (s *countingSink) Handle(n *Node, p *packet.Packet, from flow.Addr) {
	defer p.Release()
	if p.IsControl() || p.Dst != n.Addr() {
		return
	}
	if p.Src == flow.MakeAddr(10, 0, 0, 2) {
		s.blocked.Add(1)
	} else {
		s.ok.Add(1)
	}
}

// TestGatewayDropsFilteredData drives the wire gateway's data path
// over sockets: an installed filter drops one of two flows, absolutely,
// and the gateway's drop counter agrees with the engine's.
func TestGatewayDropsFilteredData(t *testing.T) {
	senderA := flow.MakeAddr(10, 0, 0, 1)
	blockedA := flow.MakeAddr(10, 0, 0, 2)
	gwA := flow.MakeAddr(10, 0, 1, 1)
	sinkA := flow.MakeAddr(10, 0, 2, 1)

	cfg := testGatewayConfig("gw", gwA, map[flow.Addr]flow.Addr{
		sinkA: sinkA, senderA: senderA, blockedA: blockedA,
	})
	cfg.DataplaneShards = 4
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sinkNode, err := NewNode(NodeConfig{Addr: sinkA, Name: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	sinkNode.SetHandler(sink)
	senderNode, err := NewNode(NodeConfig{Addr: senderA, Name: "sender",
		NextHop: map[flow.Addr]flow.Addr{sinkA: gwA}})
	if err != nil {
		t.Fatal(err)
	}
	bindBook(gw.Node(), sinkNode, senderNode)
	t.Cleanup(func() { gw.Close(); sinkNode.Close(); senderNode.Close() })
	gw.Run()
	sinkNode.Run()
	senderNode.Run()

	// Block one source pair at the gateway's data plane.
	if err := gw.DataPlane().Install(flow.PairLabel(blockedA, sinkA), 0, time.Hour); err != nil {
		t.Fatal(err)
	}

	// UDP gives no delivery guarantee (kernel buffers can shed bursts,
	// especially under the race detector), so pace the sends and assert
	// invariants rather than exact delivery counts.
	const n = 200
	for i := 0; i < n; i++ {
		ok := packet.NewData(senderA, sinkA, flow.ProtoUDP, uint16(i), 80, 100)
		if err := senderNode.Originate(ok); err != nil {
			t.Fatal(err)
		}
		ok.Release()
		// Spoof the blocked source through the same socket: the gateway
		// must drop these via the installed pair filter.
		bad := packet.NewData(blockedA, sinkA, flow.ProtoUDP, uint16(i), 80, 100)
		if err := senderNode.SendTo(gwA, bad); err != nil {
			t.Fatal(err)
		}
		bad.Release()
		if i%10 == 9 {
			time.Sleep(time.Millisecond)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sink.ok.Load() >= n/2 && gw.Stats().FilterDrops >= n/2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := sink.ok.Load(); got < n/2 {
		t.Fatalf("sink received %d packets, want >= %d", got, n/2)
	}
	// The filter must be absolute: not one blocked-source packet may
	// reach the sink, however many datagrams the kernel delivered.
	if leaked := sink.blocked.Load(); leaked != 0 {
		t.Fatalf("%d blocked packets leaked through the gateway", leaked)
	}
	// Let the socket quiesce (no new drops for a settle window) before
	// comparing the two counters exactly.
	drops := gw.Stats().FilterDrops
	for settle := 0; settle < 100; settle++ {
		time.Sleep(20 * time.Millisecond)
		cur := gw.Stats().FilterDrops
		if cur == drops {
			break
		}
		drops = cur
	}
	if drops < n/2 {
		t.Fatalf("FilterDrops = %d, want >= %d", drops, n/2)
	}
	// Gateway counter and engine accounting must agree exactly.
	if st := gw.DataPlane().FilterStats(); st.Drops != drops {
		t.Fatalf("engine drops %d != gateway FilterDrops %d", st.Drops, drops)
	}
}
