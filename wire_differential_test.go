package aitf

import (
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/topology"
	"aitf/internal/wire"
)

// TestSimWireDifferential runs one protocol round twice — through the
// simulator and through loopback UDP — with the same gateway
// configurations: the Figure-1 chain, a legacy victim defended by its
// gateway's sketch detection, and a compliant attacker. Both transports
// drive the same engine, so every gateway must emit the same ordered
// list of protocol event kinds (times and details aside): attack-
// detected … takeover-ok at v_gw1, request-received … flow-stopped at
// a_gw1, nothing at the transit gateways.
func TestSimWireDifferential(t *testing.T) {
	dep := DeployChain(ChainOptions{Options: gatewayDetectOptions(), Depth: 3,
		GatewayDefendsVictim: true, AttackerCompliant: true})
	fl := dep.Flood(dep.Attacker, dep.Victim, attackRate)
	fl.Launch()
	dep.Run(5 * time.Second)

	want := map[string][]string{}
	for _, e := range dep.Log.Events {
		if strings.Contains(e.Node, "gw") {
			want[e.Node] = append(want[e.Node], e.Kind.String())
		}
	}
	if k := want["v_gw1"]; len(k) == 0 || k[0] != "attack-detected" || k[len(k)-1] != "takeover-ok" {
		t.Fatalf("simulated v_gw1 round = %v", k)
	}
	if k := want["a_gw1"]; len(k) == 0 || k[0] != "request-received" || k[len(k)-1] != "flow-stopped" {
		t.Fatalf("simulated a_gw1 round = %v", k)
	}

	// The same deployment over sockets: each node keeps its address and
	// the simulator's routes; each gateway keeps its engine config.
	ids := dep.IDs
	nodes := []topology.NodeID{ids.Victim, ids.Attacker}
	nodes = append(append(nodes, ids.VictimGW...), ids.AttackGW...)
	routes := func(id topology.NodeID) map[flow.Addr]flow.Addr {
		nh := map[flow.Addr]flow.Addr{}
		for _, dst := range nodes {
			if hop := dep.Net.Node(id).NextHop(dep.Net.Node(dst).Addr()); hop != nil {
				nh[dep.Net.Node(dst).Addr()] = hop.Neighbor().Addr()
			}
		}
		return nh
	}
	nodeCfg := func(id topology.NodeID) wire.NodeConfig {
		n := dep.Net.Node(id)
		return wire.NodeConfig{Addr: n.Addr(), Name: n.Name(), NextHop: routes(id)}
	}
	ring := obs.NewRing(1024)
	trace := obs.NewTrace(ring, slog.New(slog.DiscardHandler))
	var socks []*wire.Node
	for _, id := range append(append([]topology.NodeID(nil), ids.VictimGW...), ids.AttackGW...) {
		g, err := wire.NewGateway(wire.GatewayConfig{
			Node:          nodeCfg(id),
			GatewayConfig: dep.Gateway(id).Config(),
			Trace:         trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		socks = append(socks, g.Node())
	}
	host := func(id, gw topology.NodeID) *wire.Host {
		h, err := wire.NewHost(wire.HostConfig{
			Node:      nodeCfg(id),
			Gateway:   dep.Net.Node(gw).Addr(),
			Timers:    dep.Gateway(gw).Config().Timers,
			Compliant: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		socks = append(socks, h.Node())
		return h
	}
	host(ids.Victim, ids.VictimGW[0]) // legacy: no detection of its own
	attacker := host(ids.Attacker, ids.AttackGW[0])
	book := wire.Book{}
	for _, n := range socks {
		book[n.Addr()] = n.UDPAddr().String()
	}
	for _, n := range socks {
		n.SetBook(book)
		n.Run()
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				attacker.SendData(dep.Victim.Node().Addr(), flow.ProtoUDP, 4000, 80, 500) // ~100 kB/s
			}
		}
	}()
	defer func() { close(stop); <-done }()

	got := func() map[string][]string {
		m := map[string][]string{}
		for _, e := range ring.Snapshot() {
			m[e.Node] = append(m[e.Node], e.Kind)
		}
		return m
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		g := got()
		if slices.Contains(g["v_gw1"], "takeover-ok") && slices.Contains(g["a_gw1"], "flow-stopped") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wire round never finished:\n%s", diffKinds(want, g))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Give a straggling event the chance to show up before comparing.
	time.Sleep(100 * time.Millisecond)
	if g := got(); diffKinds(want, g) != "" {
		t.Fatalf("event kinds differ between simulator and UDP:\n%s", diffKinds(want, g))
	}
}

// diffKinds renders the nodes whose event-kind lists differ ("" when
// none do).
func diffKinds(sim, udp map[string][]string) string {
	var b strings.Builder
	nodes := slices.AppendSeq(slices.Collect(maps.Keys(sim)), maps.Keys(udp))
	slices.Sort(nodes)
	for _, n := range slices.Compact(nodes) {
		if !slices.Equal(sim[n], udp[n]) {
			fmt.Fprintf(&b, "%s\n  sim: %v\n  udp: %v\n", n, sim[n], udp[n])
		}
	}
	return b.String()
}
