package serving

import (
	"encoding/json"
	"log"
	"net/http"
	"sync/atomic"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of the serving core, shaped for
// the GET /v1/stats JSON body. A field's metric tag is its /metricsz
// series under pas_serving_ (obs.Emitter.Fields).
type Stats struct {
	// InFlight is the number of complement computations running now.
	InFlight int `json:"in_flight" metric:"gauge in_flight Complement computations running now."`
	// QueueDepth is the number of requests currently waiting for a
	// slot; QueueCapacity is the configured bound.
	QueueDepth    int `json:"queue_depth" metric:"gauge queue_depth Requests waiting for a computation slot."`
	QueueCapacity int `json:"queue_capacity"`

	Requests int64 `json:"requests" metric:"counter requests_total Requests entering the serving core."`
	// Completed counts served requests: the total of the
	// pas_serving_request_duration_seconds histogram, which /metricsz
	// breaks down by outcome.
	Completed int64 `json:"completed" metric:"counter completed_total Requests served successfully."`

	// Shed totals the load-shedding outcomes; the components tell
	// overload apart from tight deadlines and a draining core. Each is
	// the sum of its column over Tenants, whose queues are never removed.
	Shed          int64 `json:"shed"`
	ShedQueueFull int64 `json:"shed_queue_full" metric:"counter shed_total{reason=queue_full} Requests shed, by reason."`
	ShedDeadline  int64 `json:"shed_deadline" metric:"counter shed_total{reason=deadline} Requests shed, by reason."`
	ShedDraining  int64 `json:"shed_draining" metric:"counter shed_total{reason=draining} Requests shed, by reason."`

	// Draining reports that Drain was called: the core refuses new
	// computations and the process is on its way out.
	Draining bool `json:"draining,omitempty" metric:"gauge draining Whether the core is draining for shutdown (1 = draining)."`

	// Degraded counts requests served fail-open — answered with the raw
	// prompt because the core would otherwise have shed them.
	Degraded int64 `json:"degraded" metric:"counter degraded_total Requests served fail-open with the raw prompt."`

	// Limit is the concurrency cap (MaxInFlight), so in_flight/limit is
	// the slot utilization.
	Limit int `json:"limit" metric:"gauge limit Concurrency cap (-max-inflight)."`

	// ServiceEWMAMs is the smoothed computation time pricing the
	// Retry-After hint (RetryAfterHintS, seconds).
	ServiceEWMAMs   float64 `json:"service_ewma_ms"`
	RetryAfterHintS int     `json:"retry_after_hint_s" metric:"gauge retry_after_hint_seconds Current Retry-After hint for shed responses."`

	// Tenants is the per-tenant admission accounting, sorted by id.
	Tenants []TenantStats `json:"tenants,omitempty" metric:"each tenant Tenant"`

	// DedupHits counts requests served by attaching to another
	// request's in-flight computation.
	DedupHits int64 `json:"dedup_hits" metric:"counter dedup_hits_total Requests served by an in-flight duplicate."`

	Cache CacheStats `json:"cache"`
	// CacheHitRatio is hits/(hits+misses), 0 when no lookups yet.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

// Stats returns a consistent-enough snapshot (counters are read
// atomically but not as one transaction; fine for monitoring).
func (c *Core) Stats() Stats {
	inflight, waiting := c.sched.depth()
	s := Stats{
		InFlight:      inflight,
		QueueDepth:    waiting,
		QueueCapacity: c.cfg.QueueDepth,
		Requests:      atomic.LoadInt64(&c.requests),
		Draining:      c.draining.Load(),
		Degraded:      atomic.LoadInt64(&c.degraded),
		Limit:         c.cfg.MaxInFlight,
		ServiceEWMAMs: c.svc.serviceMs(),
		Tenants:       c.sched.tenantStats(),
	}
	for _, h := range c.lat {
		s.Completed += h.Count()
	}
	for _, ts := range s.Tenants {
		s.ShedQueueFull += ts.ShedQueueFull
		s.ShedDeadline += ts.ShedDeadline
		s.ShedDraining += ts.ShedOther
	}
	s.DedupHits = atomic.LoadInt64(&c.dedupHits)
	s.Shed = s.ShedQueueFull + s.ShedDeadline + s.ShedDraining
	s.RetryAfterHintS = c.svc.retryAfter(waiting, s.Limit)
	if c.cache != nil {
		s.Cache = c.cache.Stats()
		if lookups := s.Cache.Hits + s.Cache.Misses; lookups > 0 {
			s.CacheHitRatio = float64(s.Cache.Hits) / float64(lookups)
		}
	}
	return s
}

// RegisterMetrics exposes the core on reg under the pas_serving_
// namespace: its Stats, read at scrape time so the core's counters
// stay the single source of truth, and the duration histogram it owns.
func (c *Core) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emitter) {
		e.Histogram(c.durations)
		e.Fields("pas_serving_", c.Stats())
	})
}

// StatsHandler serves the snapshot as JSON; mount at GET /v1/stats.
func (c *Core) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := json.NewEncoder(w).Encode(c.Stats()); err != nil {
			log.Printf("serving: writing stats: %v", err)
		}
	})
}
