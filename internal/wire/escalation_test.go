package wire

import (
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/flow"
)

// TestEscalationRoundOverUDP is the wire counterpart of
// DeployChain{Depth: 2, NonCooperative: {0: true}}:
//
//	attacker — a_gw1 (non-coop) — a_gw2 — v_gw2 — v_gw1 — victim
//
// a_gw1 ignores v_gw1's request, so the flood outlives v_gw1's
// temporary filter: v_gw1 escalates to its provider v_gw2, whose round
// reaches a_gw2. a_gw2 completes the handshake with v_gw1, installs the
// T-filter, and disconnects a_gw1 when it ignores the stop order too.
// The victim stops receiving the flood.
func TestEscalationRoundOverUDP(t *testing.T) {
	var (
		victimA   = flow.MakeAddr(10, 0, 0, 2)
		vgw1A     = flow.MakeAddr(10, 0, 0, 1)
		vgw2A     = flow.MakeAddr(10, 0, 1, 1)
		agw2A     = flow.MakeAddr(10, 9, 1, 1)
		agw1A     = flow.MakeAddr(10, 9, 0, 1)
		attackerA = flow.MakeAddr(10, 9, 0, 2)
	)
	chain := []flow.Addr{victimA, vgw1A, vgw2A, agw2A, agw1A, attackerA}
	gateway := func(name string, addr, client, provider, peer flow.Addr, coop bool) *Gateway {
		cfg := testGatewayConfig(name, addr, chainRoutes(chain, addr), client)
		cfg.Provider = provider
		if peer != 0 {
			cfg.Peers[peer] = contract.DefaultPeer()
		}
		cfg.Cooperative = coop
		g, err := NewGateway(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	vgw1 := gateway("v_gw1", vgw1A, victimA, vgw2A, 0, true)
	vgw2 := gateway("v_gw2", vgw2A, vgw1A, 0, agw2A, true)
	agw2 := gateway("a_gw2", agw2A, agw1A, 0, vgw2A, true)
	agw1 := gateway("a_gw1", agw1A, attackerA, agw2A, 0, false)
	host := func(name string, addr, gw flow.Addr, detectBps float64) *Host {
		h, err := NewHost(HostConfig{
			Node:         NodeConfig{Addr: addr, Name: name, NextHop: chainRoutes(chain, addr)},
			Gateway:      gw,
			Timers:       testTimers(),
			DetectBps:    detectBps,
			DetectWindow: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		return h
	}
	victim := host("victim", victimA, vgw1A, 20_000)
	attacker := host("attacker", attackerA, agw1A, 0)
	bindBook(victim.Node(), vgw1.Node(), vgw2.Node(), agw2.Node(), agw1.Node(), attacker.Node())
	for _, g := range []*Gateway{vgw1, vgw2, agw2, agw1} {
		g.Run()
	}
	victim.Run()
	attacker.Run()

	flood(t, attacker, victimA)

	waitUntil(t, 5*time.Second, func() bool {
		return vgw1.Stats().Escalations > 0
	}, "v_gw1 never escalated past the non-cooperative a_gw1")
	waitUntil(t, 5*time.Second, func() bool {
		return agw2.Stats().HandshakesOK > 0 && agw2.Filters().Len() > 0
	}, "a_gw2 never installed the T-filter")
	if st := agw1.Stats(); st.HandshakesStarted != 0 {
		t.Fatalf("non-cooperative a_gw1 ran %d handshakes", st.HandshakesStarted)
	}

	waitUntil(t, 5*time.Second, func() bool {
		return agw2.Stats().Disconnects > 0
	}, "a_gw2 never disconnected a_gw1 for ignoring the stop order")

	// Outlast v_gw1's re-installed temporary filter, so what keeps the
	// victim clear is a_gw2; then the victim must see no more of the
	// flood.
	time.Sleep(testTimers().Ttmp + 100*time.Millisecond)
	before := victim.Stats().BytesReceived
	time.Sleep(400 * time.Millisecond)
	if got := victim.Stats().BytesReceived; got != before {
		t.Fatalf("victim still receiving the flood: %d -> %d bytes", before, got)
	}
}
