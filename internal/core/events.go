// Package core implements the AITF protocol itself: the behaviour of
// victims, victims' gateways, attackers' gateways and attackers
// (§II-C), the three-way handshake that authenticates filtering
// requests (§II-E), the escalation mechanism that walks filtering
// toward the attacker round by round (§II-B/II-D), and the
// disconnection threat that makes cooperation rational (§III-A).
//
// core nodes plug into the netsim data plane as packet handlers, where
// every state machine runs on simulated virtual time, so the same code
// is exercised identically across experiments. A gateway reaches the
// outside world only through its Env, so the UDP runtime
// (internal/wire) runs this same engine over sockets and wall time.
package core

import (
	"fmt"
	"strings"

	"aitf/internal/flow"
	"aitf/internal/sim"
)

// EventKind labels protocol trace events.
type EventKind uint8

// Protocol events, in rough lifecycle order.
const (
	EvAttackDetected EventKind = iota + 1
	EvRequestSent
	EvRequestReceived
	EvRequestPoliced
	EvRequestInvalid
	EvTempFilterInstalled
	EvFilterInstalled
	EvFilterRejected
	EvShadowLogged
	EvShadowHit
	EvHandshakeQuery
	EvHandshakeReply
	EvHandshakeOK
	EvHandshakeFailed
	EvStopOrder
	EvFlowStopped
	EvTakeoverOK
	EvEscalated
	EvDisconnected
	EvLongBlock
	EvAggregated
	EvDeaggregated
	// Fault-tolerance events: the reliable control messenger and
	// gateway crash/restore.
	EvCtrlRetransmit
	EvCtrlDupDrop
	EvGatewayCrashed
	EvGatewayRestored
	// Cluster events: merge rounds that surfaced new detections, and
	// logical replica death (failover).
	EvClusterMerge
	EvReplicaKilled
)

var eventNames = map[EventKind]string{
	EvAttackDetected:      "attack-detected",
	EvRequestSent:         "request-sent",
	EvRequestReceived:     "request-received",
	EvRequestPoliced:      "request-policed",
	EvRequestInvalid:      "request-invalid",
	EvTempFilterInstalled: "temp-filter-installed",
	EvFilterInstalled:     "filter-installed",
	EvFilterRejected:      "filter-rejected",
	EvShadowLogged:        "shadow-logged",
	EvShadowHit:           "shadow-hit",
	EvHandshakeQuery:      "handshake-query",
	EvHandshakeReply:      "handshake-reply",
	EvHandshakeOK:         "handshake-ok",
	EvHandshakeFailed:     "handshake-failed",
	EvStopOrder:           "stop-order",
	EvFlowStopped:         "flow-stopped",
	EvTakeoverOK:          "takeover-ok",
	EvEscalated:           "escalated",
	EvDisconnected:        "disconnected",
	EvLongBlock:           "long-block",
	EvAggregated:          "aggregated",
	EvDeaggregated:        "deaggregated",
	EvCtrlRetransmit:      "ctrl-retransmit",
	EvCtrlDupDrop:         "ctrl-dup-drop",
	EvGatewayCrashed:      "gateway-crashed",
	EvGatewayRestored:     "gateway-restored",
	EvClusterMerge:        "cluster-merge",
	EvReplicaKilled:       "replica-killed",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event-%d", uint8(k))
}

// Event is one protocol trace record.
type Event struct {
	T      sim.Time
	Node   string
	Kind   EventKind
	Flow   flow.Label
	Detail string
}

func (e Event) String() string {
	s := fmt.Sprintf("%-12v %-10s %-22s %s", e.T, e.Node, e.Kind, e.Flow)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Tracer consumes protocol events; nil tracers are allowed everywhere.
type Tracer func(Event)

// Log is a Tracer that retains events for inspection.
type Log struct {
	Events []Event
}

// Record appends an event; pass log.Record as the Tracer.
func (l *Log) Record(e Event) { l.Events = append(l.Events, e) }

// OfKind returns the retained events of the given kind, in order.
func (l *Log) OfKind(k EventKind) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many events of kind k were recorded.
func (l *Log) Count(k EventKind) int { return len(l.OfKind(k)) }

// First returns the first event of kind k, if any.
func (l *Log) First(k EventKind) (Event, bool) {
	for _, e := range l.Events {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// String renders the whole timeline, one event per line.
func (l *Log) String() string {
	var b strings.Builder
	for _, e := range l.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
