package serving

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the tenant id a request carries when the caller set
// none — single-tenant deployments never see another id.
const DefaultTenant = "default"

// OverflowTenant is the shared queue that absorbs tenants beyond
// MaxTenants, so an id-spraying client exhausts its own aggregate share
// instead of the scheduler's memory.
const OverflowTenant = "overflow"

type tenantCtxKey struct{}

// WithTenant tags ctx with the requesting tenant's id; the admission
// scheduler reads it back with TenantFrom. An empty id is a no-op.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFrom returns the tenant id carried by ctx, or DefaultTenant.
func TenantFrom(ctx context.Context) string {
	if v, ok := ctx.Value(tenantCtxKey{}).(string); ok && v != "" {
		return v
	}
	return DefaultTenant
}

// scheduler is the tenant-aware admission stage: a weighted
// deficit-round-robin (DRR) queue in front of a fixed concurrency
// cap. Under contention each waiting tenant is visited in round-robin
// order and granted up to weight slots per visit, so a tenant flooding
// 10× its share only ever lengthens its own queue — the well-behaved
// tenant's wait is bounded by one DRR round, not by the flood.
//
// All admission requests have unit cost (one computation slot), so the
// deficit counters are small integers and a visit's quantum is exactly
// the tenant's weight.
type scheduler struct {
	limit int // concurrent computation slots (MaxInFlight)

	queueCap      int // total waiters across all tenants (QueueDepth)
	tenantCap     int // per-tenant waiter cap; 0 = weighted share of queueCap
	maxTenants    int
	defaultWeight int
	weights       map[string]int
	quotas        map[string]int

	mu       sync.Mutex
	inflight int
	waiting  int
	tenants  map[string]*tenantQ
	ring     []*tenantQ // visit order; queues persist once created
	cursor   int
}

// tenantQ is one tenant's admission queue plus its DRR and accounting
// state; all fields are guarded by scheduler.mu.
type tenantQ struct {
	id      string
	weight  int
	quota   int // max concurrent slots; 0 = unlimited
	deficit int // remaining grants in the current DRR visit

	inflight int
	waiters  []*waiter // FIFO

	requests      int64
	admitted      int64
	shedQueueFull int64
	shedDeadline  int64
	shedOther     int64 // drain sheds, counted by the core
}

// waiter is one queued admission request. grant is closed (under
// scheduler.mu, with granted set) when dispatch hands it a slot.
type waiter struct {
	tq      *tenantQ
	grant   chan struct{}
	granted bool
}

func newScheduler(cfg *Config) *scheduler {
	s := &scheduler{
		limit:         cfg.MaxInFlight,
		queueCap:      cfg.QueueDepth,
		tenantCap:     cfg.TenantQueueDepth,
		maxTenants:    cfg.MaxTenants,
		defaultWeight: cfg.DefaultTenantWeight,
		weights:       make(map[string]int, len(cfg.TenantWeights)),
		quotas:        make(map[string]int, len(cfg.TenantQuotas)),
		tenants:       make(map[string]*tenantQ),
	}
	for k, v := range cfg.TenantWeights {
		s.weights[k] = v
	}
	for k, v := range cfg.TenantQuotas {
		s.quotas[k] = v
	}
	return s
}

// arrive resolves (creating on first sight) the tenant's queue and
// counts the admission attempt.
func (s *scheduler) arrive(tenant string) *tenantQ {
	s.mu.Lock()
	tq := s.tenantLocked(tenant)
	tq.requests++
	s.mu.Unlock()
	return tq
}

func (s *scheduler) tenantLocked(id string) *tenantQ {
	if tq := s.tenants[id]; tq != nil {
		return tq
	}
	if len(s.tenants) >= s.maxTenants {
		if tq := s.tenants[OverflowTenant]; tq != nil {
			return tq
		}
		id = OverflowTenant // table full: the overflow queue is always admitted
	}
	w := s.weights[id]
	if w <= 0 {
		w = s.defaultWeight
	}
	tq := &tenantQ{id: id, weight: w, quota: s.quotas[id]}
	s.tenants[id] = tq
	s.ring = append(s.ring, tq)
	return tq
}

// shedOther records a pre-admission shed (a draining core's) against
// the tenant, keeping per-tenant shed totals honest.
func (s *scheduler) shedOther(tq *tenantQ) {
	s.mu.Lock()
	tq.shedOther++
	s.mu.Unlock()
}

// acquire admits one computation for tq: immediately when the core has
// headroom and nobody is queued, otherwise by waiting in the tenant's
// DRR queue for at most wait. On success the returned release function
// must be called exactly once.
func (s *scheduler) acquire(ctx context.Context, tq *tenantQ, wait time.Duration) (func(), error) {
	s.mu.Lock()
	if s.waiting == 0 && s.inflight < s.limit && !quotaFull(tq) {
		s.inflight++
		tq.inflight++
		tq.admitted++
		s.mu.Unlock()
		return func() { s.release(tq) }, nil
	}
	// No immediate slot: claim a place in the waiting room or shed. The
	// room is bounded twice — globally by QueueDepth, and per tenant by
	// its (configured or weighted-fair) share, so one tenant's backlog
	// cannot brick everyone else's admission.
	if s.waiting >= s.queueCap || len(tq.waiters) >= s.tenantShareLocked(tq) {
		tq.shedQueueFull++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	if wait <= 0 {
		tq.shedDeadline++
		s.mu.Unlock()
		return nil, ErrDeadline
	}
	w := &waiter{tq: tq, grant: make(chan struct{})}
	tq.waiters = append(tq.waiters, w)
	s.waiting++
	// Dispatch before parking: when the only queued work ahead of us is
	// quota-capped, free capacity must reach this waiter now — no
	// release is coming to trigger it later.
	s.dispatchLocked()
	s.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.grant:
		s.noteAdmitted(tq)
		return func() { s.release(tq) }, nil
	case <-timer.C:
		s.abandon(w, true)
		return nil, ErrDeadline
	case <-ctx.Done():
		// A deadline that expires while queued is the same outcome as an
		// exhausted wait budget; a cancellation is the client leaving and
		// keeps its own error, uncounted.
		err := ctx.Err()
		if errors.Is(err, context.DeadlineExceeded) {
			s.abandon(w, true)
			return nil, ErrDeadline
		}
		s.abandon(w, false)
		return nil, err
	}
}

func (s *scheduler) noteAdmitted(tq *tenantQ) {
	s.mu.Lock()
	tq.admitted++
	s.mu.Unlock()
}

// abandon withdraws a waiter that gave up (deadline or cancel). When
// dispatch granted it a slot in the same instant, the slot is handed
// straight back and redistributed.
func (s *scheduler) abandon(w *waiter, deadline bool) {
	s.mu.Lock()
	if w.granted {
		s.inflight--
		w.tq.inflight--
		s.dispatchLocked()
	} else {
		q := w.tq.waiters
		for i, x := range q {
			if x == w {
				w.tq.waiters = append(q[:i], q[i+1:]...)
				break
			}
		}
		s.waiting--
	}
	if deadline {
		w.tq.shedDeadline++
	}
	s.mu.Unlock()
}

// release returns a slot and hands it to the next waiter per DRR.
func (s *scheduler) release(tq *tenantQ) {
	s.mu.Lock()
	s.inflight--
	tq.inflight--
	s.dispatchLocked()
	s.mu.Unlock()
}

func (s *scheduler) dispatchLocked() {
	for s.waiting > 0 && s.inflight < s.limit {
		if !s.grantOneLocked() {
			return // every waiting tenant is quota-capped
		}
	}
}

// grantOneLocked advances the DRR scan to the next servable waiter and
// grants it a slot; false when all waiting tenants are quota-capped.
// A queue gets a fresh quantum (its weight) when the cursor reaches it
// with an empty deficit, serves while the deficit lasts, then the
// cursor moves on; idle queues do not bank credit.
func (s *scheduler) grantOneLocked() bool {
	for scanned := 0; scanned < len(s.ring); scanned++ {
		tq := s.ring[s.cursor]
		if len(tq.waiters) == 0 {
			tq.deficit = 0
			s.advanceLocked()
			continue
		}
		if quotaFull(tq) {
			s.advanceLocked() // keep the deficit; the quota may free up
			continue
		}
		if tq.deficit == 0 {
			tq.deficit = tq.weight
		}
		tq.deficit--
		w := tq.waiters[0]
		tq.waiters = tq.waiters[1:]
		s.waiting--
		s.inflight++
		tq.inflight++
		w.granted = true
		close(w.grant)
		if tq.deficit == 0 {
			s.advanceLocked()
		}
		return true
	}
	return false
}

func (s *scheduler) advanceLocked() {
	s.cursor = (s.cursor + 1) % len(s.ring)
}

func quotaFull(tq *tenantQ) bool {
	return tq.quota > 0 && tq.inflight >= tq.quota
}

// tenantShareLocked is tq's waiting-room bound: the configured
// TenantQueueDepth when set, otherwise its weighted share of QueueDepth
// among tenants with work in the system (never below 1). A lone tenant
// keeps the whole room — single-tenant behavior is unchanged — while
// the moment a second tenant shows up the room splits by weight.
func (s *scheduler) tenantShareLocked(tq *tenantQ) int {
	if s.tenantCap > 0 {
		return s.tenantCap
	}
	total := 0
	for _, q := range s.ring {
		if q == tq || len(q.waiters) > 0 || q.inflight > 0 {
			total += q.weight
		}
	}
	share := s.queueCap * tq.weight / total
	if share < 1 {
		share = 1
	}
	return share
}

// depth snapshots (inflight, waiting) for stats, the Retry-After price and
// quiescing.
func (s *scheduler) depth() (inflight, waiting int) {
	s.mu.Lock()
	inflight, waiting = s.inflight, s.waiting
	s.mu.Unlock()
	return inflight, waiting
}

// TenantStats is one tenant's admission accounting, shaped for the
// GET /v1/stats JSON body.
type TenantStats struct {
	Tenant string `json:"tenant"`
	Weight int    `json:"weight"`
	Quota  int    `json:"quota,omitempty"`

	InFlight int `json:"in_flight"`
	Waiting  int `json:"waiting"`

	// Requests counts computation admissions attempted (cache hits and
	// single-flight followers never reach admission).
	Requests int64 `json:"requests"`
	Admitted int64 `json:"admitted"`

	Shed          int64 `json:"shed"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedDeadline  int64 `json:"shed_deadline"`
	// ShedOther counts the tenant's drain sheds — the one refusal made
	// before admission.
	ShedOther int64 `json:"shed_other,omitempty"`
}

// tenantStats snapshots every tenant queue, sorted by id.
func (s *scheduler) tenantStats() []TenantStats {
	s.mu.Lock()
	out := make([]TenantStats, 0, len(s.ring))
	for _, tq := range s.ring {
		ts := TenantStats{
			Tenant:        tq.id,
			Weight:        tq.weight,
			Quota:         tq.quota,
			InFlight:      tq.inflight,
			Waiting:       len(tq.waiters),
			Requests:      tq.requests,
			Admitted:      tq.admitted,
			ShedQueueFull: tq.shedQueueFull,
			ShedDeadline:  tq.shedDeadline,
			ShedOther:     tq.shedOther,
		}
		ts.Shed = ts.ShedQueueFull + ts.ShedDeadline + ts.ShedOther
		out = append(out, ts)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
