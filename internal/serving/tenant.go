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

// overflowTenant is the shared queue that absorbs tenants beyond
// MaxTenants, so an id-spraying client exhausts its own aggregate share
// instead of the scheduler's memory.
const overflowTenant = "overflow"

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

// scheduler is the tenant-aware admission stage: a queue per tenant in
// front of a fixed concurrency cap. Under contention the waiting tenants
// are visited in round-robin order and granted one slot per visit, so a
// tenant flooding 10× its share only ever lengthens its own queue — the
// well-behaved tenant's wait is bounded by one round, not by the flood.
type scheduler struct {
	limit      int // concurrent computation slots (MaxInFlight)
	queueCap   int // total waiters across all tenants (QueueDepth)
	maxTenants int

	mu       sync.Mutex
	inflight int
	waiting  int // > 0 only while inflight == limit: dispatch keeps it so
	tenants  map[string]*tenantQ
	ring     []*tenantQ // visit order; queues persist once created
	cursor   int
}

// tenantQ is one tenant's admission queue plus its accounting; all
// fields are guarded by scheduler.mu.
type tenantQ struct {
	id       string
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
	return &scheduler{
		limit:      cfg.MaxInFlight,
		queueCap:   cfg.QueueDepth,
		maxTenants: cfg.MaxTenants,
		tenants:    make(map[string]*tenantQ),
	}
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
		if tq := s.tenants[overflowTenant]; tq != nil {
			return tq
		}
		id = overflowTenant // table full: the overflow queue is always admitted
	}
	tq := &tenantQ{id: id}
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
// queue for at most wait. On success the returned release function
// must be called exactly once.
func (s *scheduler) acquire(ctx context.Context, tq *tenantQ, wait time.Duration) (func(), error) {
	s.mu.Lock()
	if s.waiting == 0 && s.inflight < s.limit {
		s.inflight++
		tq.inflight++
		tq.admitted++
		s.mu.Unlock()
		return func() { s.release(tq) }, nil
	}
	// No immediate slot: claim a place in the waiting room or shed. The
	// room is bounded twice — globally by QueueDepth, and per tenant by
	// its equal share, so one tenant's backlog cannot brick everyone
	// else's admission.
	if s.waiting >= s.queueCap || len(tq.waiters) >= s.tenantShareLocked(tq) {
		tq.shedQueueFull++
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	if wait <= 0 {
		tq.shedDeadline++
		s.mu.Unlock()
		return nil, errDeadline
	}
	w := &waiter{tq: tq, grant: make(chan struct{})}
	tq.waiters = append(tq.waiters, w)
	s.waiting++
	s.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.grant:
		s.noteAdmitted(tq)
		return func() { s.release(tq) }, nil
	case <-timer.C:
		s.abandon(w, true)
		return nil, errDeadline
	case <-ctx.Done():
		// A deadline that expires while queued is the same outcome as an
		// exhausted wait budget; a cancellation is the client leaving and
		// keeps its own error, uncounted.
		err := ctx.Err()
		if errors.Is(err, context.DeadlineExceeded) {
			s.abandon(w, true)
			return nil, errDeadline
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

// release returns a slot and hands it to the next waiter in turn.
func (s *scheduler) release(tq *tenantQ) {
	s.mu.Lock()
	s.inflight--
	tq.inflight--
	s.dispatchLocked()
	s.mu.Unlock()
}

func (s *scheduler) dispatchLocked() {
	for s.waiting > 0 && s.inflight < s.limit {
		s.grantLocked()
	}
}

// grantLocked hands a slot to the oldest waiter of the next tenant in
// round-robin order that has one, and moves the cursor past that
// tenant. Call it only with s.waiting > 0.
func (s *scheduler) grantLocked() {
	for len(s.ring[s.cursor].waiters) == 0 {
		s.advanceLocked()
	}
	tq := s.ring[s.cursor]
	s.advanceLocked()
	w := tq.waiters[0]
	tq.waiters = tq.waiters[1:]
	s.waiting--
	s.inflight++
	tq.inflight++
	w.granted = true
	close(w.grant)
}

func (s *scheduler) advanceLocked() {
	s.cursor = (s.cursor + 1) % len(s.ring)
}

// tenantShareLocked is tq's waiting-room bound: an equal share of
// QueueDepth among the tenants with work in the system, tq included,
// and never below 1. A lone tenant keeps the whole room; a second one
// splits it.
func (s *scheduler) tenantShareLocked(tq *tenantQ) int {
	active := 0
	for _, q := range s.ring {
		if q == tq || len(q.waiters) > 0 || q.inflight > 0 {
			active++
		}
	}
	return max(s.queueCap/active, 1)
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
