package dataplane

import (
	"aitf/internal/filter"
	"aitf/internal/flow"
)

// TableView presents the engine's sharded filter bank as one table —
// length, capacity, stats, sorted entries, expiry, exact lookup — for
// experiments, examples, and tests written against Gateway.Filters().
type TableView struct{ e *Engine }

// Table returns the filter-bank view.
func (e *Engine) Table() TableView { return TableView{e} }

// Len returns the number of installed filters summed across shards.
func (v TableView) Len() int { return v.e.Len() }

// Capacity returns the global wire-speed filter budget.
func (v TableView) Capacity() int { return v.e.FilterCapacity() }

// Stats returns aggregated counters in filter.Stats form.
func (v TableView) Stats() filter.Stats { return v.e.FilterStats() }

// Entries returns a merged snapshot sorted by expiry.
func (v TableView) Entries() []filter.Entry { return v.e.FilterEntries() }

// Expire garbage-collects filters past their deadline.
func (v TableView) Expire(now filter.Time) int { return v.e.Expire(now) }

// Lookup returns a snapshot of the live entry for the exact label.
func (v TableView) Lookup(label flow.Label, now filter.Time) (filter.Entry, bool) {
	return v.e.Get(label, now)
}

// ShadowView is the same one-table surface for the shadow cache.
type ShadowView struct{ e *Engine }

// Shadow returns the shadow-cache view.
func (e *Engine) Shadow() ShadowView { return ShadowView{e} }

// Len returns the number of logged shadow records.
func (v ShadowView) Len() int { return v.e.ShadowLen() }

// Capacity returns the global shadow-cache budget.
func (v ShadowView) Capacity() int { return v.e.ShadowCapacity() }

// Stats returns aggregated counters in filter.ShadowStats form.
func (v ShadowView) Stats() filter.ShadowStats { return v.e.ShadowStats() }

// Entries returns a merged snapshot sorted by expiry.
func (v ShadowView) Entries() []filter.ShadowEntry { return v.e.ShadowEntries() }

// ExpireOld garbage-collects records past their deadline.
func (v ShadowView) ExpireOld(now filter.Time) int { return v.e.ExpireShadows(now) }

// Get returns a snapshot of the live record for the exact label.
func (v ShadowView) Get(label flow.Label, now filter.Time) (filter.ShadowEntry, bool) {
	return v.e.ShadowGet(label, now)
}
