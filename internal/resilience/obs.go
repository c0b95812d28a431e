package resilience

import (
	"sync/atomic"

	"repro/internal/obs"
)

// hedgesTotal counts hedge launches across every Hedger: the extra
// requests resilience creates. A retry's re-attempt is an event on its
// trace ("retry.attempt"), not a series.
var hedgesTotal atomic.Int64

// RegisterMetrics exposes pas_resilience_hedges_total on reg, read at
// scrape time. Only a process that can hold a Hedger registers it.
func RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emitter) {
		e.Counter("pas_resilience_hedges_total",
			"Hedge second attempts launched.", float64(hedgesTotal.Load()))
	})
}
