package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/wire"
)

// rig is one live chain on loopback: two wire gateways booted the way
// aitfd boots them, plus the benchmark's sender and victim nodes.
type rig struct {
	tr             *traffic
	agw, vgw       *wire.Gateway
	aReg, vReg     *obs.Registry
	aTap, vTap     *tap
	sender, victim *wire.Node
	stops          *stopSink
	book           wire.Book
	gen            *generator

	loopStop chan struct{}
	loopDone chan struct{}
}

// gatewayJSON renders an aitfd gateway configuration file. Endpoints
// are learned after binding (every socket listens on port 0), so the
// book is installed with SetBook once all four nodes are up.
func gatewayJSON(name string, addr flow.Addr, secret string, routes map[flow.Addr]flow.Addr, client flow.Addr, detect bool) ([]byte, error) {
	r := make(map[string]string, len(routes))
	for d, via := range routes {
		r[d.String()] = via.String()
	}
	gw := map[string]any{"clients": []string{client.String()}, "secret": secret}
	if detect {
		gw["detect_bps"] = detectBps
		gw["detect_for"] = []string{victimAddr.String()}
		gw["detect_window_ms"] = detectWindowMs
	}
	return json.Marshal(map[string]any{
		"role": "gateway", "addr": addr.String(), "name": name,
		"listen": "127.0.0.1:0", "routes": r, "gateway": gw,
	})
}

// bootGateway follows aitfd's start path: ParseFileConfig,
// GatewayConfig, NewGateway, RegisterMetrics.
func bootGateway(raw []byte) (*wire.Gateway, *obs.Registry, error) {
	fc, err := wire.ParseFileConfig(raw)
	if err != nil {
		return nil, nil, err
	}
	gc, err := fc.GatewayConfig(obs.NewTrace(obs.NewRing(1024), slog.New(slog.DiscardHandler)))
	if err != nil {
		return nil, nil, err
	}
	g, err := wire.NewGateway(gc)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	return g, reg, nil
}

// buildRig boots the chain. attackRounds is how many attack sources
// a_gw routes stop orders for (back to the sender node).
func buildRig(tr *traffic, flood bool, attackRounds int, fault string) (_ *rig, err error) {
	rg := &rig{tr: tr, stops: &stopSink{}}
	defer func() {
		if err != nil {
			rg.close()
		}
	}()
	aRoutes := map[flow.Addr]flow.Addr{victimAddr: vGWAddr, vGWAddr: vGWAddr, senderAddr: senderAddr}
	for r := 0; r < attackRounds; r++ {
		aRoutes[attackAddr(r)] = senderAddr
	}
	vRoutes := map[flow.Addr]flow.Addr{victimAddr: victimAddr, aGWAddr: aGWAddr, senderAddr: aGWAddr}
	raw, err := gatewayJSON("a_gw", aGWAddr, tr.secretA, aRoutes, senderAddr, false)
	if err != nil {
		return nil, err
	}
	if rg.agw, rg.aReg, err = bootGateway(raw); err != nil {
		return nil, fmt.Errorf("a_gw: %w", err)
	}
	if raw, err = gatewayJSON("v_gw", vGWAddr, tr.secretV, vRoutes, victimAddr, flood); err != nil {
		return nil, err
	}
	if rg.vgw, rg.vReg, err = bootGateway(raw); err != nil {
		return nil, fmt.Errorf("v_gw: %w", err)
	}
	if rg.sender, err = wire.NewNode(wire.NodeConfig{Addr: senderAddr, Name: "sender"}); err != nil {
		return nil, err
	}
	if rg.victim, err = wire.NewNode(wire.NodeConfig{Addr: victimAddr, Name: "victim"}); err != nil {
		return nil, err
	}
	rg.book = wire.Book{
		aGWAddr:    rg.agw.Node().UDPAddr().String(),
		vGWAddr:    rg.vgw.Node().UDPAddr().String(),
		senderAddr: rg.sender.UDPAddr().String(),
		victimAddr: rg.victim.UDPAddr().String(),
	}
	for _, n := range []*wire.Node{rg.agw.Node(), rg.vgw.Node(), rg.sender, rg.victim} {
		n.SetBook(rg.book)
	}
	rg.gen = newGenerator(tr, rg.sender, fault)
	if flood {
		rg.gen.att = newAttackLog(attackRounds)
	}
	rg.aTap = &tap{g: rg.agw, now: rg.gen.now}
	rg.vTap = &tap{g: rg.vgw, now: rg.gen.now, att: rg.gen.att}
	if fault == "drop" {
		rg.vTap.dropEvery = 50
	}
	rg.victim.SetHandler(rg.gen)
	rg.sender.SetHandler(rg.stops)
	rg.setTraced(false)
	rg.agw.Run()
	rg.vgw.Run()
	rg.victim.Run()
	rg.sender.Run()
	return rg, nil
}

// setTraced switches the gateways between their own handlers and the
// timing taps. v_gw keeps its tap untraced when it must log attack
// arrivals or inject a fault.
func (rg *rig) setTraced(on bool) {
	rg.aTap.timed.Store(on)
	rg.vTap.timed.Store(on)
	rg.gen.timeOriginate.Store(on)
	if on {
		rg.agw.Node().SetHandler(rg.aTap)
	} else {
		rg.agw.Node().SetHandler(rg.agw)
	}
	if on || rg.vTap.att != nil || rg.vTap.dropEvery > 0 {
		rg.vgw.Node().SetHandler(rg.vTap)
	} else {
		rg.vgw.Node().SetHandler(rg.vgw)
	}
}

// startLoop runs the generator goroutine: it tops up the legit window,
// times out lost packets, and, with fl set, paces attack rounds.
func (rg *rig) startLoop(fl *flood) {
	rg.loopStop = make(chan struct{})
	rg.loopDone = make(chan struct{})
	go func() {
		defer close(rg.loopDone)
		g := rg.gen
		var nextSweep int64
		for {
			select {
			case <-rg.loopStop:
				return
			default:
			}
			now := g.now()
			if now >= nextSweep {
				g.sweep(now)
				nextSweep = now + int64(5*time.Millisecond)
			}
			wake := nextSweep
			if fl != nil {
				if w := fl.step(now); w < wake {
					wake = w
				}
			}
			if d := wake - g.now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
	}()
}

func (rg *rig) stopLoop() {
	if rg.loopStop == nil {
		return
	}
	close(rg.loopStop)
	<-rg.loopDone
	rg.loopStop = nil
}

// waitArrived blocks until n legit packets have come back to the
// victim, whether or not they passed the checks.
func (rg *rig) waitArrived(n uint64, limit time.Duration) error {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-rg.gen.arrived(n):
		return nil
	case <-t.C:
		c := rg.gen.counts()
		return fmt.Errorf("warm-up: %d of %d packets arrived in %v", c.delivered+c.bad, n, limit)
	}
}

// drain stops refilling the legit window and waits until every packet
// in flight has arrived or timed out. The generator loop must be
// stopped first; drain sweeps on its own.
func (rg *rig) drain() {
	g := rg.gen
	g.mu.Lock()
	g.refill = false
	g.mu.Unlock()
	for {
		g.sweep(g.now())
		g.mu.Lock()
		n := len(g.win)
		g.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (rg *rig) close() {
	rg.stopLoop()
	// Teardown after measurement: a close error has nothing to report.
	if rg.sender != nil {
		_ = rg.sender.Close()
	}
	if rg.victim != nil {
		_ = rg.victim.Close()
	}
	if rg.agw != nil {
		_ = rg.agw.Close()
	}
	if rg.vgw != nil {
		_ = rg.vgw.Close()
	}
}

// registryValue reads one counter from a gateway's metrics registry,
// the same surface aitfd serves at /metrics.
func registryValue(r *obs.Registry, name string) uint64 {
	for _, m := range r.Snapshot() {
		if m.Name == name && m.Value != nil {
			return uint64(*m.Value)
		}
	}
	return 0
}

// tap wraps a gateway's Handler: it times Handle for the traced run,
// logs attack arrivals at v_gw, and injects the drop fault.
type tap struct {
	g   *wire.Gateway
	now func() int64
	att *attackLog

	timed                        atomic.Bool
	dataNs, dataN, ctrlNs, ctrlN atomic.Int64

	dropEvery, legitSeen uint64 // touched only by the node's read loop
}

func (t *tap) Handle(n *wire.Node, p *packet.Packet, from flow.Addr) {
	ctrl := p.IsControl()
	if !ctrl {
		if t.att != nil {
			if r, ok := t.att.index(p.Src); ok {
				t.att.atVGW[r].Store(t.now())
				t.att.nVGW.Add(1)
			}
		}
		if t.dropEvery > 0 {
			if _, ok := legitIndex(p.Src); ok {
				t.legitSeen++
				if t.legitSeen%t.dropEvery == 0 {
					p.Release()
					return
				}
			}
		}
	}
	if !t.timed.Load() {
		t.g.Handle(n, p, from)
		return
	}
	start := time.Now()
	t.g.Handle(n, p, from) // p belongs to the gateway from here on
	d := int64(time.Since(start))
	if ctrl {
		t.ctrlNs.Add(d)
		t.ctrlN.Add(1)
	} else {
		t.dataNs.Add(d)
		t.dataN.Add(1)
	}
}

// stopSink is the sender's handler: the attacker ignores the stop
// orders a_gw sends it, but they are counted.
type stopSink struct{ orders atomic.Uint64 }

func (s *stopSink) Handle(_ *wire.Node, p *packet.Packet, _ flow.Addr) {
	if m, ok := p.Msg.(*packet.FilterReq); ok && m.Stage == packet.StageToAttacker {
		s.orders.Add(1)
	}
	p.Release()
}

// attackLog records, per round, when the last attack packet reached
// v_gw and the victim.
type attackLog struct {
	atVGW, atVictim []atomic.Int64
	nVGW, nVictim   atomic.Uint64
}

func newAttackLog(rounds int) *attackLog {
	return &attackLog{atVGW: make([]atomic.Int64, rounds), atVictim: make([]atomic.Int64, rounds)}
}

func (a *attackLog) index(src flow.Addr) (int, bool) {
	r, ok := attackIndex(src)
	return r, ok && r < len(a.atVGW)
}

// gatewayCounters is the a_gw/v_gw state a round or a run is judged by.
type gatewayCounters struct {
	handshakesOK, detections uint64
}

func (rg *rig) counters() gatewayCounters {
	return gatewayCounters{
		handshakesOK: rg.agw.Stats().HandshakesOK,
		detections:   rg.vgw.Stats().Detections,
	}
}
