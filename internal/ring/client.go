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

// errNoReplicas is returned (fail-closed mode) when every replica is
// Down and the ring is empty; with Config.Degrade the client returns
// the raw prompt instead, flagged degraded.
var errNoReplicas = errors.New("ring: no live replicas")

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
	// HTTPClient carries augmentation, probe and rollup traffic. nil
	// builds one over a wire.Transport, which runs each exchange with a
	// replica on the calling goroutine and keeps up to 64 idle
	// connections per replica for 90 s; an https replica goes through
	// the http.Transport beneath it.
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
		hc = &http.Client{Transport: wire.NewTransport(&http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		})}
	}
	c := &Client{cfg: cfg, ring: New(cfg.VNodes), hc: hc}
	c.mem = newMembership(replicas, c.ring, hc, cfg.Health, resilience.BreakerConfig{
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
func (c *Client) Start(ctx context.Context) { c.mem.start(ctx) }

// addReplica joins one replica to the fleet at runtime: the URL is
// validated and normalized, and the membership table gives it a fresh
// record — closed breaker, zero counters — and puts it on the ring
// (starting its probe loop when the prober is running). Adding a
// replica that is already present and routable is a harmless no-op. It
// returns the normalized URL and whether the membership actually
// changed.
func (c *Client) addReplica(rawurl string) (string, bool, error) {
	norm, err := NormalizeReplicas([]string{rawurl})
	if err != nil {
		return "", false, err
	}
	return norm[0], c.mem.add(norm[0]), nil
}

// removeReplica retires one replica: off the ring, probe loop stopped,
// record dropped — its past failures and traffic belonged to the
// process that was retired, so a later re-add starts from zero. It
// reports whether the replica was a member.
func (c *Client) removeReplica(rawurl string) (bool, error) {
	norm, err := NormalizeReplicas([]string{rawurl})
	if err != nil {
		return false, err
	}
	return c.mem.remove(norm[0]), nil
}

// Membership exposes the health table (stats surfaces, tests).
func (c *Client) Membership() *Membership { return c.mem }

// shardKey is the routing key, serving.Key with an empty model. The
// replica caches under its base model's name instead; one cluster
// serves one model, so routing on (prompt, salt) alone keeps each
// cache entry on one owner.
func shardKey(prompt, salt string) string { return serving.Key(prompt, salt, "") }

// Owner returns the replica that owns (prompt, salt) right now — the
// one whose cache the request will warm.
func (c *Client) Owner(prompt, salt string) (string, bool) {
	return c.ring.Owner(shardKey(prompt, salt))
}

// result carries one successful remote augmentation.
type result struct {
	augmented string
	degraded  bool // the replica flagged its reply X-PAS-Degraded
	replica   *replica
}

// AugmentContextDegraded routes one augmentation to the key's owner
// replica (hedging to and failing over across ring successors), and
// applies the fail-open policy when the whole fleet is unreachable. It
// mirrors pas.System.AugmentContextDegraded so the proxy treats
// in-process and clustered augmentation identically. A replica's reply
// flagged X-PAS-Degraded with any value is degraded, as is the fail-open.
//
// With a near cache the key is looked up before anything is routed, and
// a hit is prompt + the remembered tail at full quality. Only a replica's
// full-quality answer is ever remembered — never a flagged reply, never
// the fail-open below — so a near hit cannot serve a raw answer
// unflagged.
func (c *Client) AugmentContextDegraded(ctx context.Context, prompt, salt string) (augmented string, degraded bool, err error) {
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
			return prompt + tail, false, nil
		}
	}
	// Live members, owner first, resolved to their records once; every
	// later step reads the record, not the table.
	cands := c.mem.lookup(c.ring.successors(key, 0))
	ctx, span := obs.StartSpan(ctx, "ring.route")
	defer span.End()
	if len(cands) > 0 {
		span.SetAttr("ring.owner", cands[0].url)
	}
	res, err := c.tryCandidates(ctx, cands, prompt, salt)
	if err == nil {
		span.SetAttr("ring.replica", res.replica.url)
		span.SetAttrBool("degraded", res.degraded)
		if res.replica != cands[0] {
			atomic.AddInt64(&c.failovers, 1)
		}
		// The tail is stored as its own copy: a slice of augmented would
		// pin the prompt a second time beside the key.
		if tail, ok := strings.CutPrefix(res.augmented, prompt); near != nil && !res.degraded && ok && tail != "" {
			near.Put(key, strings.Clone(tail))
		}
		return res.augmented, res.degraded, nil
	}
	span.SetError(err)
	if c.cfg.Degrade {
		// The plug-and-play guarantee: a routing-tier failure serves
		// the raw prompt, never a PAS-side error.
		atomic.AddInt64(&c.degraded, 1)
		obs.AddEvent(ctx, "ring.degraded", "cause", err.Error())
		span.SetAttrBool("degraded", true)
		return prompt, true, nil
	}
	return "", false, err
}

// AugmentContextLevel is AugmentContextDegraded with the verdict as its
// X-PAS-Degraded value.
//
// Deprecated: call AugmentContextDegraded; kept one round for bench/pasperf.
func (c *Client) AugmentContextLevel(ctx context.Context, prompt, salt string) (augmented, level string, err error) {
	augmented, degraded, err := c.AugmentContextDegraded(ctx, prompt, salt)
	if degraded {
		level = wire.DegradedValue
	}
	return augmented, level, err
}

// tryCandidates serves one request from the candidate list. The
// primary attempt starts at the owner and walks successors on hard
// failure; when hedging is on, a slow owner additionally races a
// second attempt that starts at the first successor. The atomic cursor
// hands each attempt its own starting offset.
func (c *Client) tryCandidates(ctx context.Context, cands []*replica, prompt, salt string) (result, error) {
	if len(cands) == 0 {
		return result{}, errNoReplicas
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
		done(resilience.IsTerminal(err))
		r.errors.Add(1)
		return result{}, err
	}
	done(true)
	r.requests.Add(1)
	res.replica = r
	span.SetAttrBool("degraded", res.degraded)
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
		c.mem.observe(r.url, err)
		return result{}, fmt.Errorf("ring: replica %s: %w", r.url, err)
	}
	defer resp.Body.Close()
	// Reachable at the transport level — HTTP-level shedding (503) is
	// breaker food, not a membership failure.
	c.mem.observe(r.url, nil)
	if resp.StatusCode != http.StatusOK {
		// Read a bounded slice of the error body for the message, and
		// classify so the breaker treats a 4xx other than 429 as
		// terminal and a shed (429/503) or a 5xx as a failure.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("ring: replica %s: status %d: %s", r.url, resp.StatusCode, bytes.TrimSpace(msg))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
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
	// The header flags every non-full 200, whatever its value.
	return result{augmented: augmented, degraded: resp.Header.Get(wire.DegradedHeader) != ""}, nil
}

// ReplicaStats is one replica's data-path snapshot.
type ReplicaStats struct {
	URL string `json:"url"`
	// Requests counts augmentations this replica served; Errors counts
	// failed attempts that reached it (breaker-open refusals excluded).
	// Both restart from zero when a retired replica is re-added.
	Requests int64 `json:"requests" metric:"counter replica_requests_total Augmentations served, by replica."`
	Errors   int64 `json:"errors" metric:"counter replica_errors_total Failed attempts, by replica."`
}

// Stats is the cluster client's snapshot, shaped for GET /v1/stats. A
// field's metric tag is its /metricsz series under pas_ring_
// (obs.Emitter.Fields).
type Stats struct {
	Requests  int64 `json:"requests" metric:"counter requests_total Requests entering the cluster routing tier."`
	Failovers int64 `json:"failovers" metric:"counter failovers_total Requests served by a non-owner replica."`
	Degraded  int64 `json:"degraded" metric:"counter degraded_total Requests served fail-open after the whole fleet failed."`
	// Live is the routable member count; Members the full health table.
	Live    int            `json:"live" metric:"gauge live_members Members currently routable (up or suspect)."`
	Members []MemberStatus `json:"members" metric:"each replica URL"`
	// Replicas reports data-path traffic per replica, in replica order.
	Replicas []ReplicaStats    `json:"replicas" metric:"each replica URL"`
	Breakers map[string]string `json:"breakers,omitempty"`
	Hedging  bool              `json:"hedging"`
	// Cache is the near cache; all zero without one. Requests it does
	// not count as hits are the ones that went on to the ring.
	Cache CacheStats `json:"cache"`
	// Added and Removed count members joined and retired at runtime;
	// they are metrics only.
	Added   int64 `json:"-" metric:"counter members_added_total Members joined at runtime."`
	Removed int64 `json:"-" metric:"counter members_removed_total Members retired at runtime."`
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

// RegisterMetrics exposes the routing tier's Stats on reg under the
// pas_ring_ namespace, and its hedger's launches as
// pas_resilience_hedges_total (0 with hedging off), read at scrape time.
func (c *Client) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(e *obs.Emitter) {
		e.Fields("pas_ring_", c.Stats())
		e.Counter("pas_resilience_hedges_total", "Hedge second attempts launched.", float64(c.hedger.Launches()))
	})
}
