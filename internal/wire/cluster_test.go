package wire

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
)

// gatewayMetricNames is the aitf_gateway_* schema every gateway
// exposes, clustered or not.
var gatewayMetricNames = []string{
	"aitf_gateway_requests_received_total",
	"aitf_gateway_requests_policed_total",
	"aitf_gateway_requests_invalid_total",
	"aitf_gateway_handshakes_started_total",
	"aitf_gateway_handshakes_ok_total",
	"aitf_gateway_handshakes_failed_total",
	"aitf_gateway_ctrl_reliable_sends_total",
	"aitf_gateway_ctrl_retransmits_total",
	"aitf_gateway_ctrl_dup_drops_total",
	"aitf_gateway_snapshot_saves_total",
	"aitf_gateway_snapshot_restores_total",
	"aitf_gateway_filters_restored_total",
	"aitf_gateway_stop_orders_total",
	"aitf_gateway_aggregations_total",
	"aitf_gateway_aggregate_collateral_bytes_total",
	"aitf_gateway_detections_total",
	"aitf_gateway_escalations_total",
	"aitf_gateway_long_blocks_total",
	"aitf_gateway_shadow_reblocks_total",
	"aitf_gateway_disconnects_total",
	"aitf_gateway_disconnect_drops_total",
	"aitf_gateway_spoof_drops_total",
}

// clusterMetricNames is the aitf_cluster_* schema the admin endpoint
// and the bench -metrics-json snapshot expose; renaming one breaks
// dashboards, so this list is the lock.
var clusterMetricNames = []string{
	"aitf_cluster_log_length",
	"aitf_cluster_merge_rounds_total",
	"aitf_cluster_merge_bytes_total",
	"aitf_cluster_failovers_total",
	"aitf_cluster_catchup_ops_total",
	"aitf_cluster_catchup_ns_total",
}

// TestWireClusterRoundOverUDP is TestLiveGatewayDetectionOverUDP with
// the victim's gateway run as a three-replica cluster: the sharded
// engines do the detecting, the full protocol round still completes,
// the replicated log records the installs, the wall-clock ticker runs
// merge rounds, and a replica kill mid-run loses no filters.
func TestWireClusterRoundOverUDP(t *testing.T) {
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
	vcfg.Cluster = cluster.Config{
		Replicas:   3,
		MergeEvery: 100 * time.Millisecond,
		Replicate:  true,
	}
	vgw, err := NewGateway(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if vgw.Detector() != nil {
		t.Fatal("clustered gateway still built the single detection engine")
	}
	if vgw.Cluster() == nil {
		t.Fatal("cluster config did not build the overlay")
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
	}, "clustered gateway never detected the flood")
	waitUntil(t, 5*time.Second, func() bool {
		return agw.Stats().HandshakesOK > 0
	}, "handshake never completed against the clustered victim gateway")
	waitUntil(t, 5*time.Second, func() bool {
		return vgw.Cluster().Stats().MergeRounds > 0
	}, "the merge ticker never ran a round")

	clu := vgw.Cluster()
	if clu.LogLen() == 0 {
		t.Fatal("no filter op reached the replicated log")
	}
	// Give one merge interval for the log to ship, then kill the replica
	// owning the attack flow: with replication on, the survivors must
	// inherit every live filter.
	time.Sleep(150 * time.Millisecond)
	owner := clu.Owner(attackerA, victimA)
	inherited, lost, ok := vgw.KillReplica(owner)
	if !ok {
		t.Fatalf("KillReplica(%d) refused", owner)
	}
	if lost != 0 {
		t.Fatalf("replicated failover lost %d filters (inherited %d)", lost, inherited)
	}
	if st := clu.Stats(); st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if msg := clu.CheckConsistency(wallNow()); msg != "" {
		t.Fatalf("post-failover consistency: %s", msg)
	}
	// The dataplane never loses installed filters to a logical kill.
	if vgw.Filters().Len() == 0 && vgw.Shadows().Len() == 0 {
		t.Fatal("gateway holds neither filter nor shadow after the round")
	}
}

// TestWireClusterMetricsSchema locks the aitf_cluster_* and
// aitf_gateway_* observability schema: a clustered gateway exposes
// every instrument through both the Prometheus exposition and the
// /metrics.json snapshot shape, and an unclustered gateway exposes the
// gateway instruments but none of the cluster ones.
func TestWireClusterMetricsSchema(t *testing.T) {
	fc, err := ParseFileConfig([]byte(`{
		"role":"gateway","addr":"10.0.0.1","listen":"127.0.0.1:0",
		"gateway":{"secret":"s","cluster_peers":3,"cluster_merge_ms":500,
		           "cluster_replication":true}}`))
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

	reg := obs.NewRegistry()
	g.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	if err := obs.CheckExposition(expo); err != nil {
		t.Fatalf("clustered exposition invalid: %v", err)
	}
	for _, name := range append(clusterMetricNames, gatewayMetricNames...) {
		if !strings.Contains(expo, name) {
			t.Errorf("exposition lacks %s", name)
		}
	}
	// The same names must survive the JSON snapshot (the /metrics.json
	// and bench -metrics-json representation).
	buf.Reset()
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snaps []obs.MetricSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snaps); err != nil {
		t.Fatalf("metrics.json shape: %v", err)
	}
	have := map[string]bool{}
	for _, s := range snaps {
		have[s.Name] = true
	}
	for _, name := range append(clusterMetricNames, gatewayMetricNames...) {
		if !have[name] {
			t.Errorf("metrics.json snapshot lacks %s", name)
		}
	}

	// An unclustered gateway must not leak the cluster namespace.
	plain, err := NewGateway(testGatewayConfig("plain", flow.MakeAddr(10, 0, 0, 9), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	preg := obs.NewRegistry()
	plain.RegisterMetrics(preg)
	buf.Reset()
	if err := preg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "aitf_cluster_") {
		t.Fatal("unclustered gateway exposes aitf_cluster_* metrics")
	}
	for _, name := range gatewayMetricNames {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("unclustered exposition lacks %s", name)
		}
	}
}

// TestWireClusterSnapshotRestore: the replicated filter log rides the
// drain snapshot. A clustered gateway records installs, drains to
// disk, and a successor process (fresh epoch) restores the log with
// deadlines rebased onto its own clock — so a post-restore failover
// still inherits every live filter instead of re-detecting from zero.
func TestWireClusterSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	victim := flow.MakeAddr(10, 0, 0, 2)
	mk := func() *Gateway {
		cfg := testGatewayConfig("g", flow.MakeAddr(10, 0, 0, 1), map[flow.Addr]flow.Addr{victim: victim}, victim)
		// A temporary filter outlives the restore by seconds.
		cfg.Timers = contract.Timers{T: 20 * time.Second, Ttmp: 4 * time.Second,
			Grace: 100 * time.Millisecond, Penalty: time.Second}
		cfg.SnapshotPath = filepath.Join(dir, "gw.snapshot.json")
		cfg.Cluster = cluster.Config{Replicas: 3, Replicate: true}
		g, err := NewGateway(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := mk()
	labels := []flow.Label{
		flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), victim),
		flow.PairLabel(flow.MakeAddr(20, 0, 0, 2), victim),
	}
	// The victim files a request for each flow; each temporary filter
	// install appends to the replicated log.
	for _, l := range labels {
		g.Handle(g.Node(), packet.NewControl(victim, g.Node().Addr(), &packet.FilterReq{
			Stage:    packet.StageToVictimGW,
			Flow:     l,
			Victim:   victim,
			Evidence: []packet.RREntry{stamp(g.Node().Addr(), g.cfg.Secret, l.Src, l.Dst)},
		}), victim)
	}
	wantLog := g.Cluster().LogLen()
	if wantLog < len(labels) {
		t.Fatalf("log holds %d ops, want >= %d", wantLog, len(labels))
	}
	if err := g.Close(); err != nil { // drains the snapshot
		t.Fatal(err)
	}

	g2 := mk()
	defer g2.Close()
	if _, err := g2.RestoreFromDisk(); err != nil {
		t.Fatal(err)
	}
	if got := g2.Cluster().LogLen(); got != wantLog {
		t.Fatalf("restored log holds %d ops, want %d", got, wantLog)
	}
	// Ops apply eagerly only at their origin replica; one merge round
	// ships the restored log to the others, as in live operation.
	g2.Cluster().MergeRound(wallNow())
	// Every restored deadline must be live and rebased: in the future,
	// but no further out than the original 5s grant.
	now2 := wallNow()
	for id := 0; id < g2.Cluster().Replicas(); id++ {
		view := g2.Cluster().FilterView(id)
		for _, l := range labels {
			exp, ok := view[l]
			if !ok {
				t.Fatalf("replica %d lost %v across the restore", id, l)
			}
			if exp <= now2 || exp > now2+5*time.Second {
				t.Fatalf("replica %d deadline for %v not rebased: exp %v, now %v", id, l, exp, now2)
			}
		}
	}
	inherited, lost, ok := g2.KillReplica(0)
	if !ok || lost != 0 || inherited < len(labels) {
		t.Fatalf("post-restore failover: inherited %d, lost %d, ok %v", inherited, lost, ok)
	}
}

// TestWireClusterMergeTickerStopsOnClose: Close must stop the
// self-re-arming merge ticker — the round counter goes quiet once the
// gateway is closed.
func TestWireClusterMergeTickerStopsOnClose(t *testing.T) {
	cfg := testGatewayConfig("g", flow.MakeAddr(10, 0, 0, 1), nil)
	cfg.Cluster = cluster.Config{Replicas: 2, MergeEvery: 20 * time.Millisecond}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return g.Cluster().Stats().MergeRounds > 0
	}, "merge ticker never fired")
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let any in-flight firing finish
	quiesced := g.Cluster().Stats().MergeRounds
	time.Sleep(100 * time.Millisecond) // five intervals of silence
	if got := g.Cluster().Stats().MergeRounds; got != quiesced {
		t.Fatalf("merge ticker still running after Close: %d -> %d rounds", quiesced, got)
	}
}
