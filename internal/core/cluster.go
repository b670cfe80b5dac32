package core

// Gateway cluster integration: the internal/cluster overlay rides on
// one gateway process as k logical replicas. Detection observations
// route to each flow's owning replica, filter-table mutations append
// to the replicated log, and a recurring merge round exchanges
// detection state and ships the log. The host gateway's dataplane
// stays the sole packet-verdict fast path — killing a logical replica
// loses its detection slice and (without replication) its filter-log
// view, never an installed dataplane filter.

import (
	"fmt"

	"aitf/internal/cluster"
	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/sim"
)

// Cluster exposes the gateway's cluster overlay (nil when disabled).
func (g *Gateway) Cluster() *cluster.Cluster { return g.clu }

// detectionArmed reports whether any detection plane exists — the
// single engine or the cluster's sharded engines.
func (g *Gateway) detectionArmed() bool {
	return g.det != nil || (g.clu != nil && g.protected != nil)
}

// observeTuple routes one delivered packet to the detection plane: the
// owning cluster replica when clustering is on, the single engine
// otherwise.
func (g *Gateway) observeTuple(now sim.Time, tup flow.Tuple, payload int) (detect.Detection, bool) {
	if g.clu != nil {
		return g.clu.Observe(now, tup, payload)
	}
	if g.det != nil {
		return g.det.ObserveTuple(now, tup, payload)
	}
	return detect.Detection{}, false
}

// clusterRecord appends one filter op to the replicated log; a no-op
// without a cluster.
func (g *Gateway) clusterRecord(kind cluster.OpKind, label flow.Label, exp sim.Time) {
	if g.clu != nil {
		g.clu.Record(kind, label, exp, g.now())
	}
}

// armClusterMerge schedules the recurring merge round. Armed once at
// Attach; each firing re-arms the next, and a halted gateway lets the
// chain die.
func (g *Gateway) armClusterMerge() {
	if g.clu == nil {
		return
	}
	g.env.After(g.clu.Config().MergeInterval(), func() {
		if g.halted {
			return
		}
		if fresh := g.clu.MergeRound(g.now()); fresh > 0 {
			g.trace(EvClusterMerge, flow.Label{}, fmt.Sprintf("%d merged detections pending", fresh))
		}
		g.armClusterMerge()
	})
}

// KillReplica kills one logical replica mid-run: its detection slice
// is lost (the last published summary keeps feeding the merged view
// for one window) and its flows reassign to the survivors. Reports
// how many of its live filters the survivors inherited vs lost.
func (g *Gateway) KillReplica(id int) (inherited, lost int, ok bool) {
	if g.clu == nil {
		return 0, 0, false
	}
	inherited, lost, ok = g.clu.KillReplica(id, g.now())
	if ok {
		g.trace(EvReplicaKilled, flow.Label{},
			fmt.Sprintf("replica %d: %d filters inherited, %d lost", id, inherited, lost))
	}
	return inherited, lost, ok
}
