package filter_test

// These tests pin the table and shadow-cache contract documented on
// this package's types — ErrTableFull and EvictPolicy, the Stats
// occupancy arithmetic, refresh and expiry rules, and the shadow
// cache's bounded logging — against the one store that implements it,
// dataplane.Engine. They sit beside the types they specify, in the
// external test package so the import of internal/dataplane is legal.

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"aitf/internal/dataplane"
	"aitf/internal/filter"
	"aitf/internal/flow"
)

var (
	a1 = flow.MakeAddr(10, 0, 0, 1)
	a2 = flow.MakeAddr(10, 0, 0, 2)
	v1 = flow.MakeAddr(10, 9, 0, 1)
)

func pair(i byte) flow.Label {
	return flow.PairLabel(flow.MakeAddr(10, 0, 1, i), v1)
}

func aggChild(i int, dst flow.Addr) flow.Label {
	return flow.PairLabel(flow.MakeAddr(240, 1, 2, byte(i)), dst)
}

// store is an engine plus the clock its classification reads.
type store struct {
	*dataplane.Engine
	now filter.Time
}

// newStore builds a four-shard engine with the given filter and shadow
// budgets; several shards check that the budgets are global.
func newStore(filters, shadows int, policy filter.EvictPolicy) *store {
	s := &store{}
	s.Engine = dataplane.New(dataplane.Config{
		Shards:         4,
		FilterCapacity: filters,
		ShadowCapacity: shadows,
		Evict:          policy,
		ShadowLookup:   true,
		Clock:          dataplane.ClockFunc(func() filter.Time { return s.now }),
	})
	return s
}

// classify classifies one tuple at time now.
func (s *store) classify(tup flow.Tuple, payload int, now filter.Time) dataplane.Verdict {
	s.now = now
	return s.ClassifyTuple(tup, payload)
}

// balanced checks the single-entry occupancy identity documented on
// filter.Stats.
func balanced(t *testing.T, s *store, when string) {
	t.Helper()
	st := s.FilterStats()
	live := int64(st.Installed) + int64(st.Aggregates) - int64(st.Removed) -
		int64(st.Aggregated) - int64(st.Expired) - int64(st.Evicted)
	if live != int64(s.Len()) {
		t.Fatalf("%s: stats arithmetic %d != occupancy %d (%+v)", when, live, s.Len(), st)
	}
}

func TestInstallAndMatch(t *testing.T) {
	s := newStore(4, 4, filter.RejectNew)
	l := flow.PairLabel(a1, v1)
	if err := s.Install(l, 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if !s.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 5, 80), 100, time.Second).Drop {
		t.Fatal("installed filter did not match")
	}
	if s.classify(flow.TupleOf(a2, v1, flow.ProtoUDP, 5, 80), 100, time.Second).Drop {
		t.Fatal("unrelated tuple matched")
	}
	st := s.FilterStats()
	if st.Drops != 1 || st.DroppedBytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
	e, ok := s.Get(l, time.Second)
	if !ok || e.Drops != 1 {
		t.Fatalf("Get entry = %+v ok=%v", e, ok)
	}
}

func TestMatchExpired(t *testing.T) {
	s := newStore(4, 4, filter.RejectNew)
	s.Install(flow.PairLabel(a1, v1), 0, time.Second)
	if s.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 5, 80), 10, 2*time.Second).Drop {
		t.Fatal("expired filter matched")
	}
	if _, ok := s.Get(flow.PairLabel(a1, v1), 2*time.Second); ok {
		t.Fatal("expired filter returned by Get")
	}
}

func TestCapacityRejectNew(t *testing.T) {
	s := newStore(2, 2, filter.RejectNew)
	if err := s.Install(pair(1), 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(pair(2), 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	err := s.Install(pair(3), 0, time.Minute)
	if !errors.Is(err, filter.ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	if s.FilterStats().Rejected != 1 {
		t.Fatalf("Rejected = %d", s.FilterStats().Rejected)
	}
	// Re-installing an existing label must succeed even when full.
	if err := s.Install(pair(1), time.Second, 2*time.Minute); err != nil {
		t.Fatalf("refresh failed: %v", err)
	}
}

func TestCapacityEvictSoonest(t *testing.T) {
	s := newStore(2, 2, filter.EvictSoonest)
	s.Install(pair(1), 0, 10*time.Second) // soonest expiry
	s.Install(pair(2), 0, time.Minute)
	if err := s.Install(pair(3), 0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, ok := s.Get(pair(1), time.Second); ok {
		t.Fatal("soonest-expiring entry not evicted")
	}
	if s.FilterStats().Evicted != 1 {
		t.Fatalf("Evicted = %d", s.FilterStats().Evicted)
	}
}

func TestInstallMakesRoomByExpiring(t *testing.T) {
	s := newStore(1, 1, filter.RejectNew)
	s.Install(pair(1), 0, time.Second)
	// At t=2s the first filter is dead; Install must GC and succeed.
	if err := s.Install(pair(2), 2*time.Second, time.Minute); err != nil {
		t.Fatalf("Install after expiry: %v", err)
	}
}

func TestRefreshExtendsOnly(t *testing.T) {
	s := newStore(2, 2, filter.RejectNew)
	s.Install(pair(1), 0, time.Minute)
	s.Install(pair(1), 0, 30*time.Second) // shorter: must not shrink
	e, ok := s.Get(pair(1), 0)
	if !ok || e.ExpiresAt != time.Minute {
		t.Fatalf("expiry = %v, want 1m", e.ExpiresAt)
	}
	if s.FilterStats().Installed != 1 {
		t.Fatalf("Installed = %d, want 1 (refresh is not a new install)", s.FilterStats().Installed)
	}
}

func TestRemove(t *testing.T) {
	s := newStore(2, 2, filter.RejectNew)
	s.Install(pair(1), 0, time.Minute)
	if !s.Remove(pair(1)) {
		t.Fatal("Remove returned false")
	}
	if s.Remove(pair(1)) {
		t.Fatal("second Remove returned true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestExpireAndNextExpiry(t *testing.T) {
	s := newStore(8, 8, filter.RejectNew)
	s.Install(pair(1), 0, 10*time.Second)
	s.Install(pair(2), 0, 20*time.Second)
	s.Install(pair(3), 0, 30*time.Second)
	next, ok := s.NextExpiry()
	if !ok || next != 10*time.Second {
		t.Fatalf("NextExpiry = %v ok=%v", next, ok)
	}
	if n := s.Expire(15 * time.Second); n != 1 {
		t.Fatalf("Expire removed %d, want 1", n)
	}
	next, _ = s.NextExpiry()
	if next != 20*time.Second {
		t.Fatalf("NextExpiry after GC = %v", next)
	}
	s.Expire(time.Hour)
	if _, ok := s.NextExpiry(); ok {
		t.Fatal("NextExpiry ok on empty table")
	}
}

func TestPeakOccupancy(t *testing.T) {
	s := newStore(10, 10, filter.RejectNew)
	for i := byte(0); i < 7; i++ {
		s.Install(pair(i), 0, time.Minute)
	}
	s.Remove(pair(0))
	s.Remove(pair(1))
	if s.FilterStats().PeakOccupancy != 7 {
		t.Fatalf("PeakOccupancy = %d, want 7", s.FilterStats().PeakOccupancy)
	}
}

func TestEntriesSorted(t *testing.T) {
	s := newStore(8, 8, filter.RejectNew)
	s.Install(pair(3), 0, 30*time.Second)
	s.Install(pair(1), 0, 10*time.Second)
	s.Install(pair(2), 0, 20*time.Second)
	es := s.FilterEntries()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].ExpiresAt < es[i-1].ExpiresAt {
			t.Fatal("entries not sorted by expiry")
		}
	}
}

func TestZeroCapacityTable(t *testing.T) {
	s := newStore(0, 0, filter.EvictSoonest)
	if err := s.Install(pair(1), 0, time.Minute); !errors.Is(err, filter.ErrTableFull) {
		t.Fatalf("zero-capacity Install err = %v", err)
	}
	if s.Len() != 0 || s.FilterStats().Evicted != 0 {
		t.Fatalf("zero-capacity table holds %d filters, evicted %d", s.Len(), s.FilterStats().Evicted)
	}
	s2 := newStore(-5, -5, filter.RejectNew)
	if s2.FilterCapacity() != 0 || s2.ShadowCapacity() != 0 {
		t.Fatalf("negative capacity clamped to %d/%d", s2.FilterCapacity(), s2.ShadowCapacity())
	}
}

func TestWildcardScanMatch(t *testing.T) {
	s := newStore(4, 4, filter.RejectNew)
	s.Install(flow.FromSource(a1), 0, time.Minute)
	// FromSource anchors no destination: it lives outside the pair
	// shards and must still match tuples hashing to any of them.
	if !s.classify(flow.TupleOf(a1, v1, flow.ProtoTCP, 9, 9), 10, time.Second).Drop {
		t.Fatal("FromSource filter did not match")
	}
	if s.classify(flow.TupleOf(a2, v1, flow.ProtoTCP, 9, 9), 10, time.Second).Drop {
		t.Fatal("FromSource filter matched wrong source")
	}
}

// Property: occupancy never exceeds capacity regardless of operations.
func TestPropertyOccupancyBounded(t *testing.T) {
	f := func(ops []byte, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		policy := filter.RejectNew
		if capRaw%2 == 0 {
			policy = filter.EvictSoonest
		}
		s := newStore(capacity, capacity, policy)
		now := filter.Time(0)
		for _, op := range ops {
			now += filter.Time(op) * time.Millisecond
			l := pair(op % 32)
			switch op % 3 {
			case 0:
				s.Install(l, now, now+filter.Time(op)*time.Second)
			case 1:
				s.Remove(l)
			case 2:
				s.Expire(now)
			}
			if s.Len() > capacity {
				return false
			}
		}
		return s.FilterStats().PeakOccupancy <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowLogLookupHit(t *testing.T) {
	s := newStore(4, 10, filter.RejectNew)
	l := flow.PairLabel(a1, v1)
	if !s.LogShadow(l, v1, 0, time.Minute) {
		t.Fatal("LogShadow failed")
	}
	// With no live filter, classification consults the shadow cache
	// and records the reappearance.
	v := s.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 1, 2), 10, time.Second)
	if v.Drop || !v.ShadowHit {
		t.Fatalf("want shadow hit, got %+v", v)
	}
	if v.Shadow.Reappearances != 1 {
		t.Fatalf("Reappearances = %d", v.Shadow.Reappearances)
	}
	if s.ShadowStats().Hits != 1 {
		t.Fatalf("Hits = %d", s.ShadowStats().Hits)
	}
	if v.Shadow.Victim != v1 {
		t.Fatalf("Victim = %v", v.Shadow.Victim)
	}
}

func TestShadowExpiry(t *testing.T) {
	s := newStore(4, 10, filter.RejectNew)
	s.LogShadow(flow.PairLabel(a1, v1), v1, 0, time.Second)
	if s.classify(flow.TupleOf(a1, v1, flow.ProtoUDP, 1, 2), 10, 2*time.Second).ShadowHit {
		t.Fatal("expired shadow entry hit")
	}
	if n := s.ExpireShadows(2 * time.Second); n != 1 {
		t.Fatalf("ExpireShadows = %d", n)
	}
}

func TestShadowCapacity(t *testing.T) {
	s := newStore(4, 2, filter.RejectNew)
	s.LogShadow(pair(1), v1, 0, time.Minute)
	s.LogShadow(pair(2), v1, 0, time.Minute)
	if s.LogShadow(pair(3), v1, 0, time.Minute) {
		t.Fatal("over-capacity LogShadow succeeded")
	}
	if s.ShadowStats().Rejected != 1 {
		t.Fatalf("Rejected = %d", s.ShadowStats().Rejected)
	}
	// Refresh of existing entry succeeds even at capacity.
	if !s.LogShadow(pair(1), v1, time.Second, 2*time.Minute) {
		t.Fatal("refresh failed at capacity")
	}
	e, _ := s.ShadowGet(pair(1), time.Second)
	if e.ExpiresAt != 2*time.Minute {
		t.Fatalf("refresh expiry = %v", e.ExpiresAt)
	}
}

// TestShadowDisabled: shadow capacity 0 turns request logging off —
// the E6 shadow-off ablation — so nothing is logged, nothing hits, and
// every attempt counts as a rejection.
func TestShadowDisabled(t *testing.T) {
	s := newStore(4, 0, filter.RejectNew)
	if s.LogShadow(pair(1), v1, 0, time.Minute) {
		t.Fatal("disabled cache accepted entry")
	}
	tup := flow.TupleOf(flow.MakeAddr(10, 0, 1, 1), v1, flow.ProtoUDP, 1, 2)
	if v := s.classify(tup, 10, 0); v.ShadowHit {
		t.Fatal("disabled cache reported a shadow hit")
	}
	if st := s.ShadowStats(); st.Rejected != 1 || st.Logged != 0 || st.PeakSize != 0 || s.ShadowLen() != 0 {
		t.Fatalf("disabled cache stats %+v len %d", st, s.ShadowLen())
	}
}

func TestShadowRemoveAndEntries(t *testing.T) {
	s := newStore(4, 4, filter.RejectNew)
	s.LogShadow(pair(1), v1, 0, 30*time.Second)
	s.LogShadow(pair(2), v1, 0, 10*time.Second)
	es := s.ShadowEntries()
	if len(es) != 2 || es[0].ExpiresAt != 10*time.Second {
		t.Fatalf("entries = %+v", es)
	}
	if !s.RemoveShadow(pair(1)) || s.RemoveShadow(pair(1)) {
		t.Fatal("RemoveShadow semantics wrong")
	}
}

func TestShadowPeakSize(t *testing.T) {
	s := newStore(4, 100, filter.RejectNew)
	for i := byte(0); i < 50; i++ {
		s.LogShadow(pair(i), v1, 0, time.Minute)
	}
	for i := byte(0); i < 20; i++ {
		s.RemoveShadow(pair(i))
	}
	if st := s.ShadowStats(); st.PeakSize != 50 || s.ShadowLen() != 30 {
		t.Fatalf("PeakSize = %d, len %d", st.PeakSize, s.ShadowLen())
	}
}

// TestTableAggregateConservesBudget pins the quota contract of
// aggregation: replacing k children with one aggregate frees exactly
// k−1 slots, double-counts nothing in the stats arithmetic, leaks
// nothing through repeated cycles, and preserves coverage time.
func TestTableAggregateConservesBudget(t *testing.T) {
	const capacity = 8
	dst := flow.MakeAddr(10, 0, 0, 9)
	s := newStore(capacity, capacity, filter.RejectNew)
	for i := 0; i < capacity; i++ {
		if err := s.Install(aggChild(i, dst), 0, filter.Time(i+1)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Install(aggChild(99, dst), 0, time.Minute); err == nil {
		t.Fatal("table should be full")
	}

	groups := filter.SiblingGroups(s.FilterEntries(), 24, 2)
	if len(groups) != 1 {
		t.Fatalf("groups: %+v", groups)
	}
	g := groups[0]
	if _, err := s.Aggregate(g.Aggregate, g.ChildLabels(), 0, time.Second); err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after aggregate = %d, want 1 (k slots freed, 1 consumed)", s.Len())
	}
	st := s.FilterStats()
	if st.Aggregates != 1 || st.Aggregated != uint64(capacity) {
		t.Fatalf("aggregation stats: %+v", st)
	}
	if st.Removed != 0 {
		t.Fatalf("children double-counted under Removed: %+v", st)
	}
	balanced(t, s, "after aggregate")
	// Coverage time conserved: the aggregate outlives the latest child
	// even though the caller asked for less.
	e, ok := s.Get(g.Aggregate, 0)
	if !ok || e.ExpiresAt != filter.Time(capacity)*time.Second {
		t.Fatalf("aggregate deadline %+v, want %v", e, filter.Time(capacity)*time.Second)
	}
	// The aggregate still blocks every child flow.
	if !s.classify(flow.TupleOf(flow.MakeAddr(240, 1, 2, 3), dst, flow.ProtoUDP, 1, 80), 10, 0).Drop {
		t.Fatal("aggregate does not match a child flow")
	}

	// Re-aggregating with the aggregate live refreshes it (no new entry,
	// no stat churn beyond newly folded children).
	if err := s.Install(aggChild(50, dst), 0, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Aggregate(g.Aggregate, []flow.Label{aggChild(50, dst)}, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	st = s.FilterStats()
	if s.Len() != 1 || st.Aggregates != 1 || st.Aggregated != uint64(capacity+1) {
		t.Fatalf("refresh cycle: len=%d stats=%+v", s.Len(), st)
	}
	if e, _ := s.Get(g.Aggregate, 0); e.ExpiresAt != 30*time.Second {
		t.Fatalf("refresh did not extend to late child: %+v", e)
	}

	// Aggregating nothing present is a plain capacity-checked install
	// (here: fine, the table has room).
	g2 := flow.SrcPrefixLabel(flow.MakeAddr(241, 0, 0, 0), 24, dst)
	if _, err := s.Aggregate(g2, []flow.Label{aggChild(200, dst)}, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	balanced(t, s, "after childless aggregate")
	// No leak across many cycles: install k children, aggregate, expire.
	now := filter.Time(0)
	for cycle := 0; cycle < 20; cycle++ {
		s2 := newStore(capacity, capacity, filter.RejectNew)
		for i := 0; i < capacity; i++ {
			if err := s2.Install(aggChild(i, dst), now, now+time.Second); err != nil {
				t.Fatal(err)
			}
		}
		gs := filter.SiblingGroups(s2.FilterEntries(), 24, 2)
		if _, err := s2.Aggregate(gs[0].Aggregate, gs[0].ChildLabels(), now, now+time.Second); err != nil {
			t.Fatal(err)
		}
		if s2.Len() != 1 {
			t.Fatalf("cycle %d: leak, Len=%d", cycle, s2.Len())
		}
		s2.Expire(now + 2*time.Second)
		if s2.Len() != 0 {
			t.Fatalf("cycle %d: aggregate did not expire", cycle)
		}
	}
}

// TestTableAggregateRefreshConservesStats locks in the stats
// conservation contract for *repeated* aggregation into an existing
// aggregate — the refresh path: each round folds only the children
// actually present (counted once in Aggregated, never in Removed),
// installs no second aggregate entry, and keeps the occupancy identity
//
//	Installed + Aggregates − Removed − Aggregated − Expired − Evicted == Len
//
// exact, while the aggregate's deadline only ever ratchets upward.
func TestTableAggregateRefreshConservesStats(t *testing.T) {
	const capacity = 8
	dst := flow.MakeAddr(10, 0, 0, 9)
	s := newStore(capacity, capacity, filter.RejectNew)
	agg := flow.SrcPrefixLabel(flow.MakeAddr(240, 1, 2, 0), 24, dst)

	// Round 0 installs the aggregate the normal way, with a deadline
	// beyond the refresh rounds so it stays live throughout.
	for i := 0; i < 4; i++ {
		if err := s.Install(aggChild(i, dst), 0, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Aggregate(agg, []flow.Label{
		aggChild(0, dst), aggChild(1, dst), aggChild(2, dst), aggChild(3, dst),
	}, 0, time.Minute); err != nil {
		t.Fatal(err)
	}
	balanced(t, s, "round 0")

	// Rounds 1..5 repeatedly aggregate fresh children into the already
	// installed aggregate.
	var wantAggregated uint64 = 4
	var lastDeadline filter.Time
	for round := 1; round <= 5; round++ {
		now := filter.Time(round) * time.Second
		a, b := aggChild(10+2*round, dst), aggChild(11+2*round, dst)
		childExp := now + filter.Time(round)*time.Second
		if err := s.Install(a, now, childExp); err != nil {
			t.Fatal(err)
		}
		if err := s.Install(b, now, childExp); err != nil {
			t.Fatal(err)
		}
		// The children list includes the aggregate's own key (must be
		// skipped, not folded into itself) and an absent label (must be
		// skipped without counting).
		children := []flow.Label{agg, a, b, aggChild(200+round, dst)}
		replaced, err := s.Aggregate(agg, children, now, now)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if replaced != 2 {
			t.Fatalf("round %d: replaced %d, want 2", round, replaced)
		}
		wantAggregated += 2
		st := s.FilterStats()
		if st.Aggregates != 1 {
			t.Fatalf("round %d: refresh installed a second aggregate: %+v", round, st)
		}
		if st.Aggregated != wantAggregated {
			t.Fatalf("round %d: Aggregated %d, want %d (absent/self children must not count)",
				round, st.Aggregated, wantAggregated)
		}
		if st.Removed != 0 {
			t.Fatalf("round %d: children leaked into Removed: %+v", round, st)
		}
		if s.Len() != 1 {
			t.Fatalf("round %d: occupancy %d, want 1", round, s.Len())
		}
		balanced(t, s, "refresh round")
		e, ok := s.Get(agg, now)
		if !ok {
			t.Fatalf("round %d: aggregate missing", round)
		}
		if e.ExpiresAt < childExp || e.ExpiresAt < lastDeadline {
			t.Fatalf("round %d: deadline %v regressed (child %v, last %v)",
				round, e.ExpiresAt, childExp, lastDeadline)
		}
		lastDeadline = e.ExpiresAt
	}

	// A refresh with no present children is a pure deadline extension:
	// no counter moves.
	before := s.FilterStats()
	if _, err := s.Aggregate(agg, nil, 10*time.Second, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if after := s.FilterStats(); after != before {
		t.Fatalf("child-free refresh moved stats: %+v -> %+v", before, after)
	}
	if e, _ := s.Get(agg, 10*time.Second); e.ExpiresAt != 2*time.Minute {
		t.Fatalf("child-free refresh did not extend deadline: %+v", e)
	}
	balanced(t, s, "child-free refresh")
}
