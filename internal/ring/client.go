package ring

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/wire"
)

// ErrNoReplicas is returned (fail-closed mode) when every replica is
// Down and the ring is empty; with Config.Degrade the client returns
// the raw prompt instead, flagged degraded.
var ErrNoReplicas = errors.New("ring: no live replicas")

// Config sizes the cluster augmentation client. Zero values select
// defaults.
type Config struct {
	// Replicas are the passerve base URLs (e.g. http://10.0.0.1:8422).
	// Required, deduplicated, trailing slashes stripped.
	Replicas []string
	// VNodes is the virtual-node count per replica on the routing ring.
	// Default DefaultVNodes.
	VNodes int
	// RequestTimeout bounds one augmentation attempt against one
	// replica. Default 5s; the request context's deadline tightens it.
	RequestTimeout time.Duration
	// BreakerThreshold arms a per-replica circuit breaker: that many
	// consecutive failed calls open it for BreakerCooldown. 0 means the
	// breakers never trip (resilience.BreakerConfig.Threshold).
	BreakerThreshold int
	// BreakerCooldown is each breaker's open→half-open window.
	// Default 2s.
	BreakerCooldown time.Duration
	// Hedge enables hedged reads: when the owner replica has not
	// answered within the adaptive tail percentile, the same request
	// races against the owner's successor on the ring. Locality
	// survives because the hedge fires only for the slow tail — the
	// common path still hits exactly the owner.
	Hedge bool
	// HedgeMin / HedgeMax clamp the adaptive hedge delay. Defaults
	// 20ms / 2s.
	HedgeMin, HedgeMax time.Duration
	// Degrade fails open: when every candidate replica fails, return
	// the raw prompt flagged degraded instead of an error — the same
	// plug-and-play guarantee the single-node proxy gives.
	Degrade bool
	// Health configures the active prober.
	Health HealthConfig
	// HTTPClient carries augmentation and probe traffic; nil builds a
	// default with sane connection pooling.
	HTTPClient *http.Client
	// CacheSize and CacheTTL size the near cache: full-quality
	// complements remembered at the client, so a repeated (prompt, salt)
	// is answered without a hop. Unlike the fields above, a CacheSize of
	// 0 (or below) is not a default: it means no near cache, and every
	// request hops. CacheTTL 0 keeps an entry until it is evicted or a
	// member restarts (see nearCache).
	CacheSize int
	CacheTTL  time.Duration
}

// Client routes augmentation requests across a replica fleet by
// consistent hash of the serving cache key. It implements the same
// AugmentContextDegraded contract as pas.System, so the reverse proxy
// can swap an in-process system for a cluster without knowing the
// difference. Everything it knows about one replica lives in that
// replica's record in the membership table; the client itself keeps
// only fleet-wide counters. Safe for concurrent use.
type Client struct {
	cfg    Config
	ring   *Ring
	mem    *Membership
	hedger *resilience.Hedger // nil when hedging is off
	hc     *http.Client
	near   *nearCache // nil when Config.CacheSize <= 0

	requests  int64
	failovers int64 // successes served by a non-owner replica
	degraded  int64
}

// NewClient validates the replica list and builds the routing tier.
// Call Start to begin active health checking; without it the membership
// stays as observed by the data path only.
func NewClient(cfg Config) (*Client, error) {
	replicas, err := NormalizeReplicas(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	cfg.Replicas = replicas
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 20 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 2 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		// Every idle connection may belong to one replica: a closed-loop
		// caller per connection must find its own again, not re-dial.
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c := &Client{cfg: cfg, ring: New(cfg.VNodes), hc: hc}
	c.mem = NewMembership(replicas, c.ring, hc, cfg.Health, resilience.BreakerConfig{
		Threshold: cfg.BreakerThreshold,
		Cooldown:  cfg.BreakerCooldown,
	})
	if cfg.CacheSize > 0 {
		c.near = newNearCache(cfg.CacheSize, cfg.CacheTTL, time.Now)
		c.mem.onNewInstance = c.near.flush
	}
	if cfg.Hedge {
		c.hedger = &resilience.Hedger{MinDelay: cfg.HedgeMin, MaxDelay: cfg.HedgeMax}
	}
	return c, nil
}

// NormalizeReplicas validates a replica URL list up front — absolute
// http(s) URLs, no path/query baggage — and returns it deduplicated
// with trailing slashes stripped. Commands call it at flag-parse time
// so a typo fails at startup with a clear message instead of as the
// first request's 502.
func NormalizeReplicas(replicas []string) ([]string, error) {
	if len(replicas) == 0 {
		return nil, errors.New("ring: at least one replica URL is required")
	}
	out := make([]string, 0, len(replicas))
	seen := make(map[string]struct{}, len(replicas))
	for _, r := range replicas {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		u, err := url.Parse(r)
		if err != nil {
			return nil, fmt.Errorf("ring: replica URL %q: %w", r, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
			return nil, fmt.Errorf("ring: replica URL %q must be absolute http(s)://host[:port]", r)
		}
		if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
			return nil, fmt.Errorf("ring: replica URL %q must be a bare base URL (no path or query)", r)
		}
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out, nil
}

// Start launches the active health prober; it stops when ctx ends.
func (c *Client) Start(ctx context.Context) { c.mem.Start(ctx) }

// AddReplica joins one replica to the fleet at runtime: the URL is
// validated and normalized, and the membership table gives it a fresh
// record — closed breaker, zero counters — and puts it on the ring
// (starting its probe loop when the prober is running). Adding a
// replica that is already present and routable is a harmless no-op. It
// returns the normalized URL and whether the membership actually
// changed.
func (c *Client) AddReplica(rawurl string) (string, bool, error) {
	norm, err := NormalizeReplicas([]string{rawurl})
	if err != nil {
		return "", false, err
	}
	return norm[0], c.mem.Add(norm[0]), nil
}

// RemoveReplica retires one replica: off the ring, probe loop stopped,
// record dropped — its past failures and traffic belonged to the
// process that was retired, so a later re-add starts from zero. It
// reports whether the replica was a member.
func (c *Client) RemoveReplica(rawurl string) (bool, error) {
	norm, err := NormalizeReplicas([]string{rawurl})
	if err != nil {
		return false, err
	}
	return c.mem.Remove(norm[0]), nil
}

// Membership exposes the health table (stats surfaces, tests).
func (c *Client) Membership() *Membership { return c.mem }

// Ring exposes the routing ring (stats surfaces, tests).
func (c *Client) Ring() *Ring { return c.ring }

// shardKey is the routing key: the bytes the replica's serving cache
// shards on. One cluster serves one model, so the model dimension of
// serving.Key is a constant here and locality holds.
func shardKey(prompt, salt string) string { return serving.Key(prompt, salt, "") }

// Owner returns the replica that owns (prompt, salt) right now — the
// one whose cache the request will warm.
func (c *Client) Owner(prompt, salt string) (string, bool) {
	return c.ring.Owner(shardKey(prompt, salt))
}

// result carries one successful remote augmentation.
type result struct {
	augmented string
	level     string // X-PAS-Degraded wire value; "" = full quality
	replica   *replica
}

// AugmentContextDegraded routes one augmentation to the key's owner
// replica (hedging to and failing over across ring successors), and
// applies the fail-open policy when the whole fleet is unreachable. It
// mirrors pas.System.AugmentContextDegraded so the proxy treats
// in-process and clustered augmentation identically.
func (c *Client) AugmentContextDegraded(ctx context.Context, prompt, salt string) (augmented string, degraded bool, err error) {
	augmented, level, err := c.AugmentContextLevel(ctx, prompt, salt)
	return augmented, level != "", err
}

// AugmentContextLevel is AugmentContextDegraded with the answer's
// level: the X-PAS-Degraded wire value the serving replica answered
// with ("" full, "1" raw/fail-open), passed through as sent. It
// implements the proxy's level-aware augmenter interface.
//
// With a near cache the key is looked up before anything is routed, and
// a hit is prompt + the remembered tail at full quality. Only a replica's
// full-quality answer is ever remembered — never a flagged reply, never
// the fail-open below — so a near hit cannot serve a raw answer
// unflagged.
func (c *Client) AugmentContextLevel(ctx context.Context, prompt, salt string) (augmented, level string, err error) {
	atomic.AddInt64(&c.requests, 1)
	key := shardKey(prompt, salt)
	// The generation looked up in is the one stored into after the hop:
	// see nearCache.
	var near *serving.Cache
	if c.near != nil {
		near = c.near.gen.Load()
		if tail, ok := near.Get(key); ok {
			_, span := obs.StartSpan(ctx, "ring.route")
			span.SetAttr("ring.cache", "hit")
			span.End()
			return prompt + tail, "", nil
		}
	}
	// Live members, owner first, resolved to their records once; every
	// later step reads the record, not the table.
	cands := c.mem.lookup(c.ring.Successors(key, 0))
	ctx, span := obs.StartSpan(ctx, "ring.route")
	defer span.End()
	if len(cands) > 0 {
		span.SetAttr("ring.owner", cands[0].url)
	}
	res, err := c.tryCandidates(ctx, cands, prompt, salt)
	if err == nil {
		span.SetAttr("ring.replica", res.replica.url)
		span.SetAttrBool("degraded", res.level != "")
		if res.replica != cands[0] {
			atomic.AddInt64(&c.failovers, 1)
		}
		// The tail is stored as its own copy: a slice of augmented would
		// pin the prompt a second time beside the key.
		if tail, ok := strings.CutPrefix(res.augmented, prompt); near != nil && res.level == "" && ok && tail != "" {
			near.Put(key, strings.Clone(tail))
		}
		return res.augmented, res.level, nil
	}
	span.SetError(err)
	if c.cfg.Degrade {
		// The plug-and-play guarantee: a routing-tier failure serves
		// the raw prompt, never a PAS-side error.
		atomic.AddInt64(&c.degraded, 1)
		obs.AddEvent(ctx, "ring.degraded", "cause", err.Error())
		span.SetAttrBool("degraded", true)
		return prompt, "1", nil
	}
	return "", "", err
}

// tryCandidates serves one request from the candidate list. The
// primary attempt starts at the owner and walks successors on hard
// failure; when hedging is on, a slow owner additionally races a
// second attempt that starts at the first successor. The atomic cursor
// hands each attempt its own starting offset.
func (c *Client) tryCandidates(ctx context.Context, cands []*replica, prompt, salt string) (result, error) {
	if len(cands) == 0 {
		return result{}, ErrNoReplicas
	}
	var cursor int32
	fn := func(ctx context.Context) (result, error) {
		start := int(atomic.AddInt32(&cursor, 1)) - 1
		if start >= len(cands) {
			start = len(cands) - 1
		}
		var lastErr error
		for i := start; i < len(cands); i++ {
			res, err := c.callReplica(ctx, cands[i], prompt, salt)
			if err == nil {
				return res, nil
			}
			lastErr = err
			if cerr := ctx.Err(); cerr != nil {
				// The caller is gone (or the hedge lost the race);
				// walking further replicas serves no one.
				break
			}
		}
		return result{}, lastErr
	}
	hedger := c.hedger
	if len(cands) < 2 {
		hedger = nil // nothing to hedge against
	}
	return resilience.Hedge(ctx, hedger, fn)
}

// callReplica performs one POST /v1/augment against one replica,
// through its circuit breaker, counting the outcome on its record.
func (c *Client) callReplica(ctx context.Context, r *replica, prompt, salt string) (result, error) {
	done, err := r.breaker.Allow()
	if err != nil {
		return result{}, fmt.Errorf("ring: replica %s: %w", r.url, err)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	ctx, span := obs.StartSpan(ctx, "ring.augment")
	span.SetAttr("ring.replica", r.url)
	defer span.End()

	res, err := c.doAugment(ctx, r, prompt, salt)
	if err != nil {
		span.SetError(err)
		// Terminal errors (the caller cancelling, 4xx) say nothing
		// about replica health; everything else feeds the breaker.
		done(resilience.Classify(err) == resilience.Terminal)
		r.errors.Add(1)
		return result{}, err
	}
	done(true)
	r.requests.Add(1)
	res.replica = r
	span.SetAttrBool("degraded", res.level != "")
	return res, nil
}

// doAugment is the bare HTTP exchange, reporting transport reachability
// to the membership table.
func (c *Client) doAugment(ctx context.Context, r *replica, prompt, salt string) (result, error) {
	// Its own slice, not pooled scratch: the transport may still be
	// reading a request body after Do has returned.
	body := wire.AppendAugmentRequest(make([]byte, 0, len(prompt)+len(salt)+32), wire.AugmentRequest{Prompt: prompt, Salt: salt})
	if r.augmentURL == nil {
		return result{}, fmt.Errorf("ring: building request: replica URL %q does not parse", r.url)
	}
	// What http.NewRequestWithContext builds, minus parsing the same URL
	// again on every request: the record carries it parsed.
	req := (&http.Request{
		Method: http.MethodPost,
		URL:    r.augmentURL,
		Host:   r.augmentURL.Host,
		Proto:  "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json; charset=utf-8"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		// The transport replays the body when a kept-alive connection
		// turns out to be dead.
		GetBody: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil },
	}).WithContext(ctx)
	// The replica continues this trace, so one trace id spans
	// proxy→replica→(replica-side serving core).
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.mem.Observe(r.url, err)
		return result{}, fmt.Errorf("ring: replica %s: %w", r.url, err)
	}
	defer resp.Body.Close()
	// Reachable at the transport level — HTTP-level shedding (503) is
	// breaker food, not a membership failure.
	c.mem.Observe(r.url, nil)
	if resp.StatusCode != http.StatusOK {
		// Read a bounded slice of the error body for the message, and
		// classify so the breaker and retry layers treat 503 as
		// overload and 4xx as terminal.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("ring: replica %s: status %d: %s", r.url, resp.StatusCode, bytes.TrimSpace(msg))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			return result{}, resilience.AsOverload(err)
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return result{}, resilience.AsTerminal(err)
		}
		return result{}, err
	}
	// The reply is read into pooled scratch; augmented leaves it as a copy.
	buf := wire.GetBuffer()
	defer buf.Release()
	readErr := buf.ReadAll(io.LimitReader(resp.Body, 4<<20))
	augmented, ok := wire.DecodeAugmented(buf.B)
	if !ok {
		// A reply the scanner does not claim, or not all of one:
		// encoding/json reads it, or says what is wrong with it.
		var ar wire.AugmentResponse
		if err := json.NewDecoder(buf.Replay(readErr)).Decode(&ar); err != nil {
			return result{}, fmt.Errorf("ring: replica %s: decoding response: %w", r.url, err)
		}
		augmented = ar.Augmented
	}
	// The header carries the level ("1") on every non-full 200.
	return result{augmented: augmented, level: resp.Header.Get(wire.DegradedHeader)}, nil
}

// ReplicaStats is one replica's data-path snapshot.
type ReplicaStats struct {
	URL string `json:"url"`
	// Requests counts augmentations this replica served; Errors counts
	// failed attempts that reached it (breaker-open refusals excluded).
	// Both restart from zero when a retired replica is re-added.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// Stats is the cluster client's snapshot, shaped for GET /v1/stats.
type Stats struct {
	Requests  int64 `json:"requests"`
	Failovers int64 `json:"failovers"`
	Degraded  int64 `json:"degraded"`
	// Live is the routable member count; Members the full health table.
	Live    int            `json:"live"`
	Members []MemberStatus `json:"members"`
	// Replicas reports data-path traffic per replica, in replica order.
	Replicas []ReplicaStats    `json:"replicas"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Hedging  bool              `json:"hedging"`
	// Cache is the near cache; all zero without one. Requests it does
	// not count as hits are the ones that went on to the ring.
	Cache CacheStats `json:"cache"`
}

// Stats returns a monitoring snapshot.
func (c *Client) Stats() Stats {
	s := Stats{
		Requests:  atomic.LoadInt64(&c.requests),
		Failovers: atomic.LoadInt64(&c.failovers),
		Degraded:  atomic.LoadInt64(&c.degraded),
		Hedging:   c.hedger != nil,
	}
	if c.near != nil {
		s.Cache = c.near.stats()
	}
	// The per-replica views follow the live membership table, not the
	// boot-time config: replicas come and go at runtime.
	c.mem.fill(&s)
	return s
}

// StatsHandler serves the snapshot as JSON; pasproxy mounts it at
// GET /v1/stats in cluster mode.
func (c *Client) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.Stats()); err != nil {
			obs.AddEvent(r.Context(), "ring.stats_write_error", "cause", err.Error())
		}
	})
}

// RegisterMetrics exposes the routing tier on reg under the pas_ring_
// namespace, read from Stats at scrape time.
func (c *Client) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emitter) {
		s := c.Stats()
		e.Counter("pas_ring_requests_total", "Requests entering the cluster routing tier.", float64(s.Requests))
		e.Counter("pas_ring_failovers_total", "Requests served by a non-owner replica.", float64(s.Failovers))
		e.Counter("pas_ring_degraded_total", "Requests served fail-open after the whole fleet failed.", float64(s.Degraded))
		e.Counter("pas_ring_cache_hits_total", "Requests answered from the near cache, without a hop.", float64(s.Cache.Hits))
		e.Counter("pas_ring_cache_misses_total", "Near-cache misses: requests routed to a replica.", float64(s.Cache.Misses))
		e.Counter("pas_ring_cache_evictions_total", "Near-cache LRU evictions.", float64(s.Cache.Evictions))
		e.Counter("pas_ring_cache_expiries_total", "Near-cache TTL expiries.", float64(s.Cache.Expiries))
		e.Counter("pas_ring_cache_flushes_total", "Whole near-cache drops after a member came back as a new instance.", float64(s.Cache.Flushes))
		e.Gauge("pas_ring_cache_entries", "Near-cache entries resident.", float64(s.Cache.Entries))
		e.Gauge("pas_ring_live_members", "Members currently routable (up or suspect).", float64(s.Live))
		adds, removes, _ := c.mem.Churn()
		e.Counter("pas_ring_members_added_total", "Members joined at runtime.", float64(adds))
		e.Counter("pas_ring_members_removed_total", "Members retired at runtime.", float64(removes))
		for _, m := range s.Members {
			e.Gauge("pas_ring_member_state", "Member health (0 up, 1 suspect, 2 down, 3 draining).", float64(m.state), "replica", m.URL)
			e.Counter("pas_ring_probes_total", "Health probes issued.", float64(m.Probes), "replica", m.URL)
			e.Counter("pas_ring_probe_failures_total", "Health probes failed.", float64(m.ProbeFails), "replica", m.URL)
			e.Counter("pas_ring_member_downs_total", "Evictions of the member from the ring.", float64(m.Downs), "replica", m.URL)
			e.Counter("pas_ring_member_drains_total", "Graceful departures into draining, by replica.", float64(m.Drains), "replica", m.URL)
		}
		for _, r := range s.Replicas {
			e.Counter("pas_ring_replica_requests_total", "Augmentations served, by replica.", float64(r.Requests), "replica", r.URL)
			e.Counter("pas_ring_replica_errors_total", "Failed attempts, by replica.", float64(r.Errors), "replica", r.URL)
		}
	})
}
