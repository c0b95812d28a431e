package serving

import (
	"encoding/json"
	"log"
	"net/http"
	"sync/atomic"

	"repro/internal/obs"
)

// Stats is a point-in-time snapshot of the serving core, shaped for
// the GET /v1/stats JSON body.
type Stats struct {
	// InFlight is the number of complement computations running now.
	InFlight int `json:"in_flight"`
	// QueueDepth is the number of requests currently waiting for a
	// slot; QueueCapacity is the configured bound.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	Requests int64 `json:"requests"`
	// Completed counts served requests: the total of the
	// pas_serving_request_duration_seconds histogram, which /metricsz
	// breaks down by outcome.
	Completed int64 `json:"completed"`

	// Shed totals the load-shedding outcomes; the components tell
	// overload apart from tight deadlines and a draining core.
	Shed          int64 `json:"shed"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	ShedDraining  int64 `json:"shed_draining"`

	// Draining reports that Drain was called: the core refuses new
	// computations and the process is on its way out.
	Draining bool `json:"draining,omitempty"`

	// Degraded counts requests served fail-open — answered with the raw
	// prompt because the core would otherwise have shed them.
	Degraded int64 `json:"degraded"`

	// Limit is the concurrency cap (MaxInFlight), so in_flight/limit is
	// the slot utilization.
	Limit int `json:"limit"`

	// ServiceEWMAMs is the smoothed computation time pricing the
	// Retry-After hint (RetryAfterHintS, seconds).
	ServiceEWMAMs   float64 `json:"service_ewma_ms"`
	RetryAfterHintS int     `json:"retry_after_hint_s"`

	// Tenants is the per-tenant admission accounting, sorted by id.
	Tenants []TenantStats `json:"tenants,omitempty"`

	// DedupHits counts requests served by attaching to another
	// request's in-flight computation.
	DedupHits int64 `json:"dedup_hits"`

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
		ShedQueueFull: atomic.LoadInt64(&c.shedQueueFull),
		ShedDeadline:  atomic.LoadInt64(&c.shedDeadline),
		ShedDraining:  atomic.LoadInt64(&c.shedDraining),
		Draining:      c.draining.Load(),
		Degraded:      atomic.LoadInt64(&c.degraded),
		Limit:         c.cfg.MaxInFlight,
		ServiceEWMAMs: c.svc.serviceMs(),
	}
	for _, h := range c.lat {
		s.Completed += h.Count()
	}
	s.DedupHits = atomic.LoadInt64(&c.dedupHits)
	s.Shed = s.ShedQueueFull + s.ShedDeadline + s.ShedDraining
	s.RetryAfterHintS = c.svc.retryAfter(waiting, s.Limit)
	s.Tenants = c.sched.tenantStats()
	if c.cache != nil {
		s.Cache = c.cache.Stats()
		if lookups := s.Cache.Hits + s.Cache.Misses; lookups > 0 {
			s.CacheHitRatio = float64(s.Cache.Hits) / float64(lookups)
		}
	}
	return s
}

// RegisterMetrics exposes the core on reg under the pas_serving_
// namespace: its counters, read from Stats at scrape time so the core's
// atomics stay the single source of truth, and the duration histogram
// it owns.
func (c *Core) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emitter) {
		s := c.Stats()
		e.Histogram(c.durations)
		e.Gauge("pas_serving_in_flight", "Complement computations running now.", float64(s.InFlight))
		e.Gauge("pas_serving_queue_depth", "Requests waiting for a computation slot.", float64(s.QueueDepth))
		e.Counter("pas_serving_requests_total", "Requests entering the serving core.", float64(s.Requests))
		e.Counter("pas_serving_completed_total", "Requests served successfully.", float64(s.Completed))
		e.Counter("pas_serving_shed_total", "Requests shed, by reason.",
			float64(s.ShedQueueFull), "reason", "queue_full")
		e.Counter("pas_serving_shed_total", "Requests shed, by reason.",
			float64(s.ShedDeadline), "reason", "deadline")
		e.Counter("pas_serving_shed_total", "Requests shed, by reason.",
			float64(s.ShedDraining), "reason", "draining")
		draining := 0.0
		if s.Draining {
			draining = 1
		}
		e.Gauge("pas_serving_draining", "Whether the core is draining for shutdown (1 = draining).", draining)
		e.Counter("pas_serving_degraded_total", "Requests served fail-open with the raw prompt.", float64(s.Degraded))
		e.Gauge("pas_serving_limit", "Concurrency cap (-max-inflight).", float64(s.Limit))
		e.Gauge("pas_serving_retry_after_hint_seconds", "Current Retry-After hint for shed responses.", float64(s.RetryAfterHintS))
		for _, ts := range s.Tenants {
			e.Counter("pas_serving_tenant_requests_total", "Computation admissions attempted, by tenant.",
				float64(ts.Requests), "tenant", ts.Tenant)
			e.Counter("pas_serving_tenant_admitted_total", "Computations admitted, by tenant.",
				float64(ts.Admitted), "tenant", ts.Tenant)
			e.Counter("pas_serving_tenant_shed_total", "Requests shed, by tenant.",
				float64(ts.Shed), "tenant", ts.Tenant)
			e.Gauge("pas_serving_tenant_in_flight", "Computations running now, by tenant.",
				float64(ts.InFlight), "tenant", ts.Tenant)
			e.Gauge("pas_serving_tenant_waiting", "Requests queued for admission, by tenant.",
				float64(ts.Waiting), "tenant", ts.Tenant)
		}
		e.Counter("pas_serving_dedup_hits_total", "Requests served by an in-flight duplicate.", float64(s.DedupHits))
		e.Counter("pas_serving_cache_hits_total", "Result-cache hits.", float64(s.Cache.Hits))
		e.Counter("pas_serving_cache_misses_total", "Result-cache misses.", float64(s.Cache.Misses))
		e.Counter("pas_serving_cache_evictions_total", "Result-cache LRU evictions.", float64(s.Cache.Evictions))
		e.Counter("pas_serving_cache_expiries_total", "Result-cache TTL expiries.", float64(s.Cache.Expiries))
		e.Gauge("pas_serving_cache_entries", "Result-cache entries resident.", float64(s.Cache.Entries))
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
