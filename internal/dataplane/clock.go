package dataplane

import "aitf/internal/filter"

// Clock supplies the engine's notion of "now" so the same classification
// code runs under the discrete-event simulator (virtual time) and the
// UDP wire runtime (wall time). filter.Time is a duration since an
// epoch in both cases.
type Clock interface {
	Now() filter.Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() filter.Time

// Now implements Clock.
func (f ClockFunc) Now() filter.Time { return f() }
