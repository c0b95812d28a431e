// Package serving is the admission-controlled, deduplicating, cached
// core of the PAS hot path. It wraps any complement function
// func(prompt, salt) string behind three layers, outermost first:
//
//  1. a sharded TTL-LRU result cache keyed on (prompt, salt, model) —
//     PAS computes a fixed mapping p -> p_c, so identical requests are
//     pure repeat work;
//  2. single-flight deduplication — N concurrent identical requests
//     trigger exactly one computation and share its result;
//  3. tenant-aware bounded admission with deadline-aware load shedding
//     — at most MaxInFlight computations run at once, waiters queue per
//     tenant and are granted slots round robin, one per tenant per turn,
//     and a request that cannot get a slot within its budget (QueueWait
//     capped by the context deadline) is shed with a typed error the
//     HTTP layer maps to 503 + Retry-After.
//
// A request is answered one of two ways: the complement, or — when the
// core sheds it and Config.Degrade is set — the raw prompt, flagged
// degraded (fail-open). See DoLevel.
//
// The package is pure library: it knows nothing about HTTP except the
// optional StatsHandler, and the complement function is injected, so
// the same core fronts the in-process system (cmd/passerve), the
// reverse proxy (cmd/pasproxy), and any future backend.
package serving

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Func computes the complementary prompt p_c = M_p(p). It must be safe
// for concurrent use; the PAS model's Complement is.
type Func func(prompt, salt string) string

// Typed shedding errors; the serving layers above map all of them to
// 503 + Retry-After (or to graceful degradation when enabled).
var (
	// ErrQueueFull reports that every computation slot was taken and
	// the admission queue was already holding its bound of waiters
	// (globally, or the requesting tenant's share of it).
	ErrQueueFull = errors.New("serving: admission queue full")
	// errDeadline reports that no slot freed up within the request's
	// wait budget (QueueWait, or less when the context deadline is
	// nearer).
	errDeadline = errors.New("serving: queue wait budget exhausted")
	// ErrDraining reports that the core is draining for shutdown: new
	// computations are refused so the process can quiesce, while cache
	// hits and computations already admitted (or attached to in flight)
	// keep being served. The HTTP layer maps it to 503 + Retry-After —
	// a router fails the request over to another replica — and it is
	// never degraded to a fail-open 200: a draining replica must shed,
	// not keep absorbing traffic.
	ErrDraining = errors.New("serving: draining: new computations refused")
)

// Config sizes the serving core. The zero value of any field selects
// its default.
type Config struct {
	// CacheSize is the total result-cache capacity in entries across
	// all shards. Negative disables caching. Default 4096.
	CacheSize int
	// CacheShards is the shard count; more shards, less lock
	// contention. Default 16 (capped at CacheSize).
	CacheShards int
	// CacheTTL expires entries this long after insertion; 0 keeps them
	// until evicted. For a fixed deterministic model TTL 0 is sound;
	// set a TTL when the model behind the core can be retrained.
	CacheTTL time.Duration
	// MaxInFlight bounds concurrent complement computations: a fixed
	// cap. Default 64.
	MaxInFlight int
	// QueueDepth bounds requests waiting for a computation slot across
	// all tenants. Unlike the other fields, 0 is meaningful rather than
	// a default: it disables waiting entirely, restoring instant
	// hard-reject.
	QueueDepth int
	// QueueWait is the longest a request waits for a slot before being
	// shed; the context deadline tightens it per request. Default 100ms.
	QueueWait time.Duration

	// Degrade fails open: a request the core would shed is answered
	// degraded — the caller proceeds with the un-augmented prompt —
	// instead of with an error, and counted in Stats.Degraded. Sound for
	// PAS because the complement only ever adds guidance: the raw prompt
	// is always a valid request. A draining core still sheds.
	Degrade bool

	// Deprecated: read by nothing; kept one round because bench/pasperf's
	// frozen config literals name them; deleted with ROADMAP item 4's
	// [benchmark] edit.
	LimitFloor          int
	Retries             int           //paslint:allow unused written by bench/pasperf's frozen literals, so it cannot go before that edit
	RetryBudget         time.Duration //paslint:allow unused written by bench/pasperf's frozen literals, so it cannot go before that edit
	BreakerThreshold    int
	BreakerCooldown     time.Duration
	DefaultTenantWeight int

	// MaxTenants bounds distinct tenant queues; ids beyond it share the
	// overflowTenant queue. Default 64.
	MaxTenants int

	// ComputeDelay injects a fixed sleep into every computation — an
	// overload-drill knob for rehearsing saturation against a live
	// replica (see the README's "Surviving overload" runbook). 0 off.
	ComputeDelay time.Duration

	// Now injects the clock for TTL expiry and the waits and durations
	// the core measures; tests pin it. Default time.Now.
	Now func() time.Time
}

func (cfg *Config) applyDefaults() error {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = 16
	}
	if cfg.CacheShards < 0 {
		return fmt.Errorf("serving: CacheShards must be >= 0, got %d", cfg.CacheShards)
	}
	if cfg.CacheTTL < 0 {
		return fmt.Errorf("serving: CacheTTL must be >= 0, got %v", cfg.CacheTTL)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxInFlight < 0 {
		return fmt.Errorf("serving: MaxInFlight must be > 0, got %d", cfg.MaxInFlight)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("serving: QueueDepth must be >= 0, got %d", cfg.QueueDepth)
	}
	if cfg.QueueWait == 0 {
		cfg.QueueWait = 100 * time.Millisecond
	}
	if cfg.QueueWait < 0 {
		return fmt.Errorf("serving: QueueWait must be >= 0, got %v", cfg.QueueWait)
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 64
	}
	if cfg.MaxTenants < 0 {
		return fmt.Errorf("serving: MaxTenants must be > 0, got %d", cfg.MaxTenants)
	}
	if cfg.ComputeDelay < 0 {
		return fmt.Errorf("serving: ComputeDelay must be >= 0, got %v", cfg.ComputeDelay)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return nil
}

// Core is the serving engine. Create with New; safe for concurrent use.
type Core struct {
	fn    Func
	cfg   Config
	cache *Cache // nil when caching is disabled

	flight flightGroup
	sched  *scheduler
	svc    serviceGauge // prices RetryAfter

	// draining, once set, refuses new computations (ErrDraining) while
	// in-flight and cache-hit traffic keeps being served; see Drain.
	draining atomic.Bool

	// Sheds are not counted here: the tenant queue that refused each
	// one counts it, and Stats sums those.
	requests  int64
	dedupHits int64
	degraded  int64

	// durations is the one record of completed requests (Stats().Completed
	// is its total); finish observes into lat, its children resolved once
	// in New. The core owns it because cores are built before — and in
	// tests without — a registry; RegisterMetrics exposes it.
	durations obs.HistogramVec
	lat       [len(outcomeNames)]obs.Histogram
}

// outcome is how a completed request got its answer.
type outcome int

const (
	outcomeHit      outcome = iota // served from the result cache
	outcomeShared                  // attached to another request's computation
	outcomeComputed                // ran the computation (single-flight leader)
)

var outcomeNames = [...]string{"hit", "shared", "computed"}

// durationBounds are the duration histogram's bucket bounds in seconds:
// cache hits finish within microseconds, computations within
// milliseconds, and queue waits stretch to QueueWait and beyond.
var durationBounds = []float64{
	0.00001, 0.0001, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// New builds a serving core around fn.
func New(fn Func, cfg Config) (*Core, error) {
	if fn == nil {
		return nil, errors.New("serving: nil complement function")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	c := &Core{
		fn:    fn,
		cfg:   cfg,
		sched: newScheduler(&cfg),
		durations: obs.NewHistogramVec("pas_serving_request_duration_seconds",
			"Time from entering the serving core to a served complement, by outcome (hit, shared, computed).",
			durationBounds, "outcome"),
	}
	for o, name := range outcomeNames {
		c.lat[o] = c.durations.With(name)
	}
	if cfg.CacheSize > 0 {
		c.cache = NewCache(cfg.CacheSize, cfg.CacheShards, cfg.CacheTTL, cfg.Now)
	}
	return c, nil
}

// Key is the normalized cache/dedup key: the (prompt, salt, model)
// dimensions joined with NUL separators. Prompts are free text, so a
// plain concatenation would let ("a", "bc") collide with ("ab", "c").
//
// It is exported because the cluster routing tier (internal/ring) also
// builds its shard key with it, as Key(prompt, salt, ""), while a
// replica caches under Key(prompt, salt, its base model). The two are
// not the same bytes. Locality holds because routing is a function of
// (prompt, salt) alone and a cluster serves one model: every request
// for one (prompt, salt) reaches one owner, whose cache holds that
// pair's one entry.
//
//paslint:hotpath computed per request and per ring route; one concat, no conversions (BENCH_serving.json)
func Key(prompt, salt, model string) string {
	return prompt + "\x00" + salt + "\x00" + model
}

// DoLevel serves one complement request through cache, dedup, and
// admission. The model string scopes the cache key so one core can
// front several model versions without cross-talk. Unless degraded,
// the returned string is the complement; degraded, it is empty and the
// caller must answer with the raw prompt, flagged. On overload it
// returns a typed shedding error; a context that ends first returns its
// ctx.Err(). The name, from the level it once returned, is kept for
// bench/pasperf, which calls it, until ROADMAP item 4's [benchmark] edit.
//
// A request gets one attempt. With Config.Degrade a request that is
// shed is answered ("", true, nil) and counted in Stats.Degraded — the
// only way a request is degraded. Drain sheds are the one overload
// that never degrades: a draining replica must answer 503 so its router
// fails the request over to a peer, instead of fail-open 200s keeping
// traffic pinned to a process on its way out.
func (c *Core) DoLevel(ctx context.Context, prompt, salt, model string) (complement string, degraded bool, err error) {
	v, err := c.attempt(ctx, prompt, salt, model)
	if err != nil && c.cfg.Degrade && Overloaded(err) && !errors.Is(err, ErrDraining) {
		atomic.AddInt64(&c.degraded, 1)
		obs.AddEvent(ctx, "augment.degraded", "cause", err.Error())
		return "", true, nil
	}
	return v, false, err
}

// attempt is one pass through cache, dedup, and admission.
//
//paslint:hotpath cache-hit path budget is key+lookup+finish; the paper's p50 assumes hits do not allocate
func (c *Core) attempt(ctx context.Context, prompt, salt, model string) (string, error) {
	atomic.AddInt64(&c.requests, 1)
	if err := ctx.Err(); err != nil {
		return "", err // client already gone; don't compute for the dead
	}
	// The spans below are timed by the readings the core takes anyway:
	// one starts the request's latency and both spans, and on a hit one
	// more ends all three.
	start := c.cfg.Now()
	k := Key(prompt, salt, model)
	ctx, span := obs.StartSpanAt(ctx, "serving.do", start)
	_, lookup := obs.StartSpanAt(ctx, "serving.cache_lookup", start)
	if c.cache != nil {
		if v, ok := c.cache.Get(k); ok {
			lookup.SetStatus("hit")
			span.SetStatus("cache_hit")
			end := c.finish(start, outcomeHit)
			lookup.EndAt(end)
			span.EndAt(end)
			return v, nil
		}
		lookup.SetStatus("miss")
	} else {
		lookup.SetStatus("disabled")
	}
	lookup.End()

	v, shared, err := c.compute(ctx, k, prompt, salt)
	how := outcomeComputed
	if shared {
		how = outcomeShared
		atomic.AddInt64(&c.dedupHits, 1)
		span.SetAttr("singleflight.role", "follower")
	}
	if err != nil {
		span.SetError(err)
		span.End()
		return "", err
	}
	span.EndAt(c.finish(start, how))
	return v, nil
}

// compute runs the admission-controlled single-flight computation of
// the complement stored under key. It reports shared when the answer
// was not computed for this request: a follower's, or one the previous
// leader stored between this request's cache miss and its flight.
func (c *Core) compute(ctx context.Context, key, prompt, salt string) (string, bool, error) {
	stored := false
	v, shared, err := c.flight.do(ctx, key, func() (string, error) {
		// The single-flight leader runs here; followers share its
		// outcome, so the spans below describe the one real computation.
		//
		// A request that missed the cache just before the previous
		// leader's Put, and reached the flight just after that leader
		// left it, leads the key again: the cache is read once more,
		// without counting, so a request is one hit or one miss.
		if c.cache != nil {
			if v, ok := c.cache.peek(key); ok {
				stored = true
				return v, nil
			}
		}
		// The drain gate sits exactly here — after the cache lookup and
		// the follower attach — so a draining core still answers repeat
		// traffic (hits) and requests that joined an in-flight
		// computation, but never starts new work. And because the gate
		// precedes the queue-capacity check, a drain that lands on a
		// full queue still counts shed_draining — the drain is the
		// reason the request is refused, the full queue is incidental.
		tq := c.sched.arrive(TenantFrom(ctx))
		if c.draining.Load() {
			c.sched.shedOther(tq)
			return "", ErrDraining
		}
		admitStart := c.cfg.Now()
		_, qspan := obs.StartSpanAt(ctx, "serving.queue_wait", admitStart)
		qspan.SetAttr("singleflight.role", "leader")
		release, err := c.sched.acquire(ctx, tq, c.waitBudget(ctx))
		if err != nil {
			qspan.SetError(err)
			qspan.End()
			return "", err
		}
		admitted := c.cfg.Now()
		waited := admitted.Sub(admitStart)
		qspan.EndAt(admitted)
		defer release()
		_, compute := obs.StartSpanAt(ctx, "serving.compute", admitted)
		if c.cfg.ComputeDelay > 0 {
			time.Sleep(c.cfg.ComputeDelay)
		}
		out := c.fn(prompt, salt)
		done := c.cfg.Now()
		total := done.Sub(admitStart)
		compute.EndAt(done)
		c.svc.observeService(total - waited)
		if c.cache != nil {
			c.cache.Put(key, out)
		}
		return out, nil
	})
	return v, shared || stored, err
}

// waitBudget is how long this request may wait for a slot: QueueWait,
// tightened by the context deadline.
func (c *Core) waitBudget(ctx context.Context) time.Duration {
	wait := c.cfg.QueueWait
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < wait {
			wait = rem
		}
	}
	return wait
}

// finish records a served request: an array index into the children
// New resolved, then that child's own mutex — no map lookup, no label
// join, no allocation. It returns the time it read, when the request's
// spans end.
func (c *Core) finish(start time.Time, how outcome) time.Time {
	end := c.cfg.Now()
	c.lat[how].Observe(end.Sub(start).Seconds())
	return end
}

// RetryAfter is the backoff hint, in whole seconds, a shed response
// should carry: the estimated time for the present backlog to drain at
// the observed service rate, clamped to [1, 30]. Before any
// computation has been observed it is 1 — the old fixed constant.
func (c *Core) RetryAfter() int {
	_, waiting := c.sched.depth()
	return c.svc.retryAfter(waiting, c.cfg.MaxInFlight)
}

// Drain flips the core into draining: from now on new computations are
// refused with ErrDraining while cache hits, admitted computations, and
// single-flight followers of in-flight work keep completing. It returns
// true on the first call and false when the core was already draining.
// Draining is one-way — a drained core belongs to a process on its way
// out; a restart gets a fresh core.
func (c *Core) Drain() bool {
	return c.draining.CompareAndSwap(false, true)
}

// Quiesce blocks until the core is idle — no computation slot held and
// no request waiting for admission — or ctx ends, returning ctx's
// error in that case. Call it after Drain: with new work refused, the
// queue can only empty, so this is the "exit when the queue is empty
// or the drain deadline passes" half of a graceful shutdown.
func (c *Core) Quiesce(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if inflight, waiting := c.sched.depth(); inflight == 0 && waiting == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Overloaded reports whether err is one of the core's shedding errors
// (a draining core's included), for which the caller should answer 503
// with a Retry-After hint. DoLevel returns one only when it could not
// degrade instead: Config.Degrade is off, or the core is draining.
func Overloaded(err error) bool {
	return errors.Is(err, ErrQueueFull) || errors.Is(err, errDeadline) || errors.Is(err, ErrDraining)
}
