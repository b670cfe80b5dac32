// Package filter holds the router-resource vocabulary of AITF: the
// entry and counter types of the bounded wire-speed filter table and
// of the DRAM shadow cache that remembers filtering requests for their
// full lifetime T, the token-bucket policers that enforce filtering
// contracts, and the sibling grouping behind the coarse-filter
// fallback.
//
// The paper's central resource argument (§II-B, §IV-B) is that a router
// can afford gigabytes of DRAM but only a few thousand wire-speed
// filters. The one store that keeps the two pools separate and
// accounts for both is internal/dataplane's Engine; this package
// defines the contract it reports in.
package filter

import (
	"errors"
	"time"

	"aitf/internal/flow"
)

// Time mirrors sim.Time (a virtual duration since the epoch) without
// importing the engine, keeping this package reusable in wire mode.
type Time = time.Duration

// ErrTableFull is returned by an install when the table is at capacity
// and the eviction policy declines to make room.
var ErrTableFull = errors.New("filter: table full")

// EvictPolicy says what an install does when the table is full.
type EvictPolicy uint8

const (
	// RejectNew refuses new filters when full (hardware-faithful).
	RejectNew EvictPolicy = iota
	// EvictSoonest replaces the entry closest to expiry with the new
	// one. Ablated in the bench suite.
	EvictSoonest
)

func (p EvictPolicy) String() string {
	switch p {
	case RejectNew:
		return "reject-new"
	case EvictSoonest:
		return "evict-soonest"
	default:
		return "policy?"
	}
}

// Entry is one installed filter.
type Entry struct {
	Label       flow.Label
	InstalledAt Time
	ExpiresAt   Time
	// Drops counts packets this filter has dropped.
	Drops uint64
	// DroppedBytes counts payload bytes this filter has dropped.
	DroppedBytes uint64
}

// Stats aggregates filter-table counters for experiments.
//
// Aggregation accounting is single-entry: a child filter folded into a
// covering aggregate counts once under Aggregated (not also under
// Removed), and the aggregate's installation counts once under
// Aggregates (not also under Installed), so occupancy arithmetic
// (Installed + Aggregates − Removed − Aggregated − Expired − Evicted =
// live entries) balances with no double-count.
type Stats struct {
	Installed     uint64 // successful installs of a new label
	Rejected      uint64 // installs that returned ErrTableFull
	Evicted       uint64 // entries displaced by EvictSoonest
	Expired       uint64 // entries removed because their TTL passed
	Removed       uint64 // entries removed explicitly
	Aggregates    uint64 // covering prefix filters installed by an aggregation
	Aggregated    uint64 // child filters folded into an aggregate
	Drops         uint64 // packets dropped by any filter
	DroppedBytes  uint64
	PeakOccupancy int // high-water mark of simultaneous filters
}

// ShadowEntry is the DRAM record of a filtering request, kept for the
// full request lifetime T even though the wire-speed filter only stays
// installed for Ttmp ≪ T (§II-B). It is what lets the victim's gateway
// recognise "on-off" flows instantly when they reappear.
type ShadowEntry struct {
	Label     flow.Label
	LoggedAt  Time
	ExpiresAt Time
	// Reappearances counts shadow hits after the temporary filter was
	// removed — each one is an "on-off" resumption of the flow.
	Reappearances int
	// Round is the highest escalation round reached for this flow.
	Round int
	// Victim is the original requester, needed to re-verify and to
	// address escalations.
	Victim flow.Addr
}

// ShadowStats aggregates shadow-cache counters. The cache is bounded
// (mv = R1·T entries suffice per §IV-B) because the contract math
// depends on it; a capacity of 0 disables it (the E6 ablation).
type ShadowStats struct {
	Logged   uint64
	Hits     uint64
	Expired  uint64
	Rejected uint64 // log attempts over capacity
	PeakSize int
}
