package core

// Gateway snapshot/restore: the crash-survival path. Snapshot
// serializes everything a gateway must remember — the filter table,
// the shadow cache, protocol counters, and every in-flight pending
// (handshakes, compliance checks, escalation watches) with its
// absolute deadline. Restore rebuilds that state into a freshly
// attached gateway and re-arms each timer at its original deadline,
// so a daemon restart mid-attack keeps filtering: no filter expires
// early, none lives past the deadline it was originally granted.

import (
	"sort"
	"sync/atomic"

	"aitf/internal/cluster"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/traceback"
)

// WatchSnapshot is the serialized form of one victim-side watch.
type WatchSnapshot struct {
	Label       flow.Label
	Victim      flow.Addr
	Evidence    []packet.RREntry
	Ingress     flow.Addr
	Round       int
	LastSeen    sim.Time
	HaveSeen    bool
	TempUntil   sim.Time
	InstalledAt sim.Time
}

// PendingSnapshot is one attacker-side handshake awaiting its reply,
// with the absolute deadline its timeout must still fire at.
type PendingSnapshot struct {
	Req      packet.FilterReq
	Nonce    uint64
	Deadline sim.Time
}

// ComplianceSnapshot is one stop order awaiting its compliance check.
type ComplianceSnapshot struct {
	Label    flow.Label
	Client   flow.Addr
	Deadline sim.Time // end of the client's grace period
	LastSeen sim.Time
	HaveSeen bool
	CheckAt  sim.Time // absolute time of the compliance check
}

// AggregateSnapshot is one covering prefix filter with the child
// snapshots needed to split it back out.
type AggregateSnapshot struct {
	Label    flow.Label
	Children []filter.Entry
	Exp      sim.Time
}

// DisconnectSnapshot records one neighbor serving a penalty.
type DisconnectSnapshot struct {
	Neighbor flow.Addr
	Until    sim.Time
}

// GatewaySnapshot is a point-in-time serialization of a gateway's
// durable protocol state. All times are absolute times on the
// gateway's Env clock; a restore under another clock rebases them with
// Shift first (see internal/wire).
type GatewaySnapshot struct {
	TakenAt      sim.Time
	Stats        GatewayStats
	Filters      []filter.Entry
	Shadows      []filter.ShadowEntry
	Watches      []WatchSnapshot
	Pendings     []PendingSnapshot
	Compliance   []ComplianceSnapshot
	Aggregates   []AggregateSnapshot
	Disconnected []DisconnectSnapshot
	// NextTxid continues the messenger's txid sequence so post-restore
	// sends cannot collide with pre-crash ones inside a receiver's
	// dedup window.
	NextTxid uint64
	// Cluster is the cluster overlay's durable state (replicated log,
	// replica liveness, log positions, counters); nil when clustering
	// is disabled. Detection engines are volatile by design — the
	// merged sweep re-acquires attacks from live traffic.
	Cluster *cluster.State
}

func labelLess(a, b flow.Label) bool { return a.String() < b.String() }

// Shift moves every absolute time in the snapshot by d. A snapshot
// restored under another clock — a restarted daemon's — is rebased
// with it before Restore.
func (s *GatewaySnapshot) Shift(d sim.Time) {
	s.TakenAt += d
	for i := range s.Filters {
		s.Filters[i].InstalledAt += d
		s.Filters[i].ExpiresAt += d
	}
	for i := range s.Shadows {
		s.Shadows[i].LoggedAt += d
		s.Shadows[i].ExpiresAt += d
	}
	for i := range s.Watches {
		w := &s.Watches[i]
		w.LastSeen += d
		w.TempUntil += d
		w.InstalledAt += d
	}
	for i := range s.Pendings {
		s.Pendings[i].Deadline += d
	}
	for i := range s.Compliance {
		c := &s.Compliance[i]
		c.Deadline += d
		c.LastSeen += d
		c.CheckAt += d
	}
	for i := range s.Aggregates {
		a := &s.Aggregates[i]
		a.Exp += d
		for j := range a.Children {
			a.Children[j].InstalledAt += d
			a.Children[j].ExpiresAt += d
		}
	}
	for i := range s.Disconnected {
		s.Disconnected[i].Until += d
	}
	if s.Cluster != nil {
		for i := range s.Cluster.Ops {
			s.Cluster.Ops[i].Expires += d
			s.Cluster.Ops[i].At += d
		}
	}
}

// Snapshot captures the gateway's durable state. Output ordering is
// deterministic (sorted by label), so snapshotting inside a seeded
// simulation does not perturb replay fingerprints.
func (g *Gateway) Snapshot() *GatewaySnapshot {
	snap := &GatewaySnapshot{
		TakenAt: g.now(),
		Stats:   g.Stats(),
		Filters: g.dp.FilterEntries(),
		Shadows: g.dp.ShadowEntries(),
	}
	if g.msgr != nil {
		snap.NextTxid = g.msgr.nextID
	}
	if g.clu != nil {
		snap.Cluster = g.clu.ExportState()
	}
	sort.Slice(snap.Filters, func(i, j int) bool { return labelLess(snap.Filters[i].Label, snap.Filters[j].Label) })
	sort.Slice(snap.Shadows, func(i, j int) bool { return labelLess(snap.Shadows[i].Label, snap.Shadows[j].Label) })
	for _, w := range g.watches {
		snap.Watches = append(snap.Watches, WatchSnapshot{
			Label:       w.label,
			Victim:      w.victim,
			Evidence:    append([]packet.RREntry(nil), w.evidence...),
			Ingress:     w.ingress,
			Round:       w.round,
			LastSeen:    w.lastSeen,
			HaveSeen:    w.haveSeen,
			TempUntil:   w.tempUntil,
			InstalledAt: w.installedAt,
		})
	}
	sort.Slice(snap.Watches, func(i, j int) bool { return labelLess(snap.Watches[i].Label, snap.Watches[j].Label) })
	for _, pe := range g.pendings {
		snap.Pendings = append(snap.Pendings, PendingSnapshot{
			Req:      *pe.req,
			Nonce:    pe.nonce,
			Deadline: pe.deadline,
		})
	}
	sort.Slice(snap.Pendings, func(i, j int) bool { return labelLess(snap.Pendings[i].Req.Flow, snap.Pendings[j].Req.Flow) })
	for _, c := range g.compliance {
		snap.Compliance = append(snap.Compliance, ComplianceSnapshot{
			Label:    c.label,
			Client:   c.client,
			Deadline: c.deadline,
			LastSeen: c.lastSeen,
			HaveSeen: c.haveSeen,
			CheckAt:  c.deadline + sim.Time(g.cfg.Timers.Grace),
		})
	}
	sort.Slice(snap.Compliance, func(i, j int) bool { return labelLess(snap.Compliance[i].Label, snap.Compliance[j].Label) })
	for _, a := range g.aggregates {
		snap.Aggregates = append(snap.Aggregates, AggregateSnapshot{
			Label:    a.label,
			Children: append([]filter.Entry(nil), a.children...),
			Exp:      a.exp,
		})
	}
	sort.Slice(snap.Aggregates, func(i, j int) bool { return labelLess(snap.Aggregates[i].Label, snap.Aggregates[j].Label) })
	for n, until := range g.disconnected {
		snap.Disconnected = append(snap.Disconnected, DisconnectSnapshot{Neighbor: n, Until: until})
	}
	sort.Slice(snap.Disconnected, func(i, j int) bool { return snap.Disconnected[i].Neighbor < snap.Disconnected[j].Neighbor })
	return snap
}

// Halt freezes the gateway's control plane: every cancellable timer is
// cancelled, outstanding retransmission ladders stop, and scheduled
// closures that cannot be cancelled become no-ops. It models the
// protocol half of a crash — take Snapshot first if the state should
// survive, then crash the node (netsim.Node.Crash) to kill the data
// plane. wire uses it for graceful drains too.
func (g *Gateway) Halt() {
	g.halted = true
	for _, w := range g.watches {
		if w.check != nil {
			w.check.Cancel()
		}
	}
	for _, pe := range g.pendings {
		if pe.timer != nil {
			pe.timer.Cancel()
		}
	}
	for _, c := range g.compliance {
		if c.check != nil {
			c.check.Cancel()
		}
	}
	if g.msgr != nil {
		g.msgr.stopAll()
	}
}

// Restore rebuilds snapshotted state into this gateway, which must be
// freshly constructed and attached. Every timer re-arms at its
// original absolute deadline (ScheduleAt clamps deadlines that passed
// during the outage to "now", so overdue work runs immediately);
// entries whose deadlines lapsed while the gateway was down are not
// resurrected. Counters continue from the snapshot, so accounting
// balances (handshakes started vs resolved) survive the crash.
func (g *Gateway) Restore(snap *GatewaySnapshot) {
	now := g.now()

	g.restoreStats(snap.Stats)
	if g.msgr != nil && snap.NextTxid > g.msgr.nextID {
		g.msgr.nextID = snap.NextTxid
	}
	if g.clu != nil && snap.Cluster != nil {
		g.clu.ImportState(snap.Cluster, now)
	}

	for _, ent := range snap.Filters {
		if ent.ExpiresAt <= now {
			continue // lapsed during the outage: stays gone
		}
		if err := g.dp.AdoptFilter(ent); err != nil {
			g.trace(EvFilterRejected, ent.Label, "restore: "+err.Error())
			continue
		}
		exp := ent.ExpiresAt
		g.env.At(exp, func() { g.dp.Expire(g.now()) })
	}
	for _, ent := range snap.Shadows {
		if ent.ExpiresAt <= now {
			continue
		}
		g.dp.AdoptShadow(ent)
	}

	for _, ws := range snap.Watches {
		w := &vwatch{
			label:       ws.Label,
			victim:      ws.Victim,
			evidence:    traceback.AttackPath(ws.Evidence),
			ingress:     ws.Ingress,
			round:       ws.Round,
			lastSeen:    ws.LastSeen,
			haveSeen:    ws.HaveSeen,
			tempUntil:   ws.TempUntil,
			installedAt: ws.InstalledAt,
		}
		g.watches[w.label.Key()] = w
		if w.tempUntil > now {
			// The temporary filter is still up: re-arm the takeover
			// check at its original Ttmp deadline.
			installedAt := w.installedAt
			w.check = g.env.At(installedAt+sim.Time(g.cfg.Timers.Ttmp), func() {
				g.takeoverCheck(w, installedAt)
			})
		}
		g.scheduleWatchGC(w)
	}

	for _, ps := range snap.Pendings {
		label := ps.Req.Flow.Canonical()
		if ps.Deadline <= now {
			// The handshake window closed while we were down.
			atomic.AddUint64(&g.stats.HandshakesFailed, 1)
			g.trace(EvHandshakeFailed, label, "handshake window lapsed during outage")
			continue
		}
		req := ps.Req
		pend := &pending{req: &req, nonce: ps.Nonce, deadline: ps.Deadline}
		g.pendings[label.Key()] = pend
		// Re-issue the verification query with the original nonce: the
		// reply may have been lost (or dropped at our dead queues)
		// while we were down, and a duplicate reply is harmless.
		victim, mflow, nonce := req.Victim, req.Flow, ps.Nonce
		pend.tok = g.reliableSend(label, func(uint64) *packet.Packet {
			return packet.NewControl(g.env.Addr(), victim,
				&packet.VerifyQuery{Flow: mflow, Nonce: nonce})
		})
		pend.timer = g.env.At(ps.Deadline, func() {
			if g.pendings[label.Key()] == pend {
				delete(g.pendings, label.Key())
				g.cancelReliable(pend.tok)
				atomic.AddUint64(&g.stats.HandshakesFailed, 1)
				g.trace(EvHandshakeFailed, label, "verification query timed out")
			}
		})
	}

	for _, cs := range snap.Compliance {
		comp := &compliance{
			label:    cs.Label,
			client:   cs.Client,
			deadline: cs.Deadline,
			lastSeen: cs.LastSeen,
			haveSeen: cs.HaveSeen,
		}
		g.compliance[cs.Label.Key()] = comp
		comp.check = g.env.At(cs.CheckAt, func() { g.complianceCheck(comp) })
	}

	for _, as := range snap.Aggregates {
		if as.Exp <= now {
			continue
		}
		g.aggregates[as.Label.Key()] = &aggregate{
			label:    as.Label,
			children: append([]filter.Entry(nil), as.Children...),
			exp:      as.Exp,
		}
	}
	if len(g.aggregates) > 0 {
		g.armAggregateReview()
	}

	for _, ds := range snap.Disconnected {
		if ds.Until > now {
			g.disconnected[ds.Neighbor] = ds.Until
		}
	}
	g.trace(EvGatewayRestored, flow.Label{}, "state restored from snapshot")
}
