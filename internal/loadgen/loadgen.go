// Package loadgen replays a prompt corpus against a PAS serving tier —
// one replica, or a cluster behind pasproxy — at a configurable rate,
// concurrency, and key skew, and reports latency quantiles plus
// per-replica cache behavior in a machine-readable shape (the
// BENCH_serving.json committed by CI).
//
// The generator is deterministic for a given Config: key selection is
// driven by an explicit seed, so two runs against identical clusters
// replay the identical request sequence. Zipfian skew models the
// repeated-prompt traffic PAS caches for; uniform skew measures the
// cold path.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Modes and skews accepted by Config.
const (
	ModeAugment = "augment" // POST /v1/augment on a replica or cluster proxy
	ModeChat    = "chat"    // POST /v1/chat/completions through pasproxy

	SkewZipf    = "zipf"
	SkewUniform = "uniform"
)

// Config shapes one load run. Zero values select defaults.
type Config struct {
	// Target is the base URL under test (proxy or replica). Required.
	Target string
	// Mode selects the endpoint replayed. Default ModeAugment.
	Mode string
	// Model is the chat-mode model field. Default "pas-bench".
	Model string
	// Prompts is the replayed corpus; keys are drawn from it by index.
	// Required.
	Prompts []string
	// Requests bounds the run by count; Duration by wall clock. With
	// both zero the run is 200 requests; with both set, whichever stops
	// first wins.
	Requests int
	Duration time.Duration
	// QPS is the offered rate; 0 means unthrottled.
	QPS float64
	// Concurrency is the worker count. Default 8.
	Concurrency int
	// Skew picks the key distribution. Default SkewZipf.
	Skew string
	// ZipfS is the zipf s parameter (>1; larger = hotter head).
	// Default 1.2.
	ZipfS float64
	// Seed drives key sampling; equal seeds replay equal sequences.
	Seed int64
	// Tenants, when positive, labels every request with a synthetic
	// tenant ("t0".."tN-1") via X-PAS-Tenant and adds per-tenant rows to
	// the report. Zero keeps requests anonymous — and keeps the sampled
	// key sequence byte-identical to pre-tenant runs, because the tenant
	// draw only happens when Tenants > 0.
	Tenants int
	// TenantSkew is tenant t0's traffic weight relative to each other
	// tenant (default 1 = uniform). 10 with Tenants=5 makes t0 a noisy
	// neighbor carrying ~71% of the offered load — the fair-share
	// isolation scenario.
	TenantSkew float64
	// Timeout bounds one request. Default 10s.
	Timeout time.Duration
	// Salt is sent with every augmentation.
	Salt string
	// Replicas, when set, are scraped at /v1/stats before and after the
	// run; the report carries each replica's hit/miss delta, which is
	// how cluster cache locality is measured from the outside.
	Replicas []string
	// Stop, when non-nil, ends the run gracefully when closed: the
	// dispatcher hands out no further keys but in-flight requests
	// finish and are counted. This is how RunWithChurn bounds a run by
	// "the churn is over" rather than a count or clock — unlike a ctx
	// cancellation, which aborts in-flight requests as errors.
	Stop <-chan struct{}
	// HTTPClient carries the traffic; nil builds a pooled default.
	HTTPClient *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.Target == "" {
		return c, errors.New("loadgen: target URL is required")
	}
	if len(c.Prompts) == 0 {
		return c, errors.New("loadgen: prompt corpus is empty")
	}
	if c.Mode == "" {
		c.Mode = ModeAugment
	}
	if c.Mode != ModeAugment && c.Mode != ModeChat {
		return c, fmt.Errorf("loadgen: unknown mode %q (want %s or %s)", c.Mode, ModeAugment, ModeChat)
	}
	if c.Model == "" {
		c.Model = "pas-bench"
	}
	if c.Requests <= 0 && c.Duration <= 0 {
		c.Requests = 200
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Skew == "" {
		c.Skew = SkewZipf
	}
	if c.Skew != SkewZipf && c.Skew != SkewUniform {
		return c, fmt.Errorf("loadgen: unknown skew %q (want %s or %s)", c.Skew, SkewZipf, SkewUniform)
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.Tenants < 0 {
		return c, fmt.Errorf("loadgen: negative tenant count %d", c.Tenants)
	}
	if c.TenantSkew <= 0 {
		c.TenantSkew = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c, nil
}

// ReplicaReport is one replica's cache movement over the run, from its
// /v1/stats deltas.
type ReplicaReport struct {
	URL    string `json:"url"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
	// HitRatio is hits/(hits+misses) over the run's delta; 0 when the
	// replica saw no lookups.
	HitRatio float64 `json:"hit_ratio"`
	// Error is set when the replica's stats endpoint was unreachable;
	// the deltas are then meaningless.
	Error string `json:"error,omitempty"`
}

// Report is the machine-readable run summary.
// ReportSchemaVersion is stamped into every Report so committed
// BENCH_*.json files and their consumers (diff tooling, dashboards)
// can detect shape drift instead of misreading old fields.
const ReportSchemaVersion = 1

type Report struct {
	// SchemaVersion is ReportSchemaVersion at generation time;
	// GeneratedUnix is the wall-clock stamp (seconds) — provenance
	// only, never compared.
	SchemaVersion int   `json:"schema_version"`
	GeneratedUnix int64 `json:"generated_unix"`

	Mode        string  `json:"mode"`
	Target      string  `json:"target"`
	Skew        string  `json:"skew"`
	Concurrency int     `json:"concurrency"`
	TargetQPS   float64 `json:"target_qps,omitempty"`
	Seed        int64   `json:"seed"`

	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Degraded counts every served request below full quality: any
	// reply carrying a non-empty X-PAS-Degraded.
	Degraded int `json:"degraded"`
	// Shed counts requests the serving side refused with 503 — load
	// shedding or a draining replica. They are availability events, not
	// failures: the server answered deliberately, with Retry-After.
	Shed         int `json:"shed"`
	DistinctKeys int `json:"distinct_keys"`

	DurationSeconds float64 `json:"duration_seconds"`
	AchievedQPS     float64 `json:"achieved_qps"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`

	// Replicas are the per-replica cache deltas; ClusterHitRatio pools
	// them. Present only when Config.Replicas was set.
	Replicas        []ReplicaReport `json:"replicas,omitempty"`
	ClusterHits     int64           `json:"cluster_hits,omitempty"`
	ClusterMisses   int64           `json:"cluster_misses,omitempty"`
	ClusterHitRatio float64         `json:"cluster_hit_ratio,omitempty"`

	// Tenants are the per-tenant rows, sorted by tenant name; present
	// only when Config.Tenants was positive. TenantSkew echoes the
	// configured skew so a committed report is self-describing.
	Tenants    []TenantReport `json:"tenants,omitempty"`
	TenantSkew float64        `json:"tenant_skew,omitempty"`

	// FirstError is a sample failure message for quick triage.
	FirstError string `json:"first_error,omitempty"`

	// Churn is present when the run was driven by RunWithChurn: the
	// rolling-restart timeline and the hit-ratio recovery evidence.
	Churn *ChurnReport `json:"churn,omitempty"`
}

// TenantReport is one tenant's slice of the run: how much it offered,
// how much was refused, and what quality the served share came back at.
// The isolation check reads straight off two of these rows — a flooded
// run's well-behaved tenant against its solo baseline.
type TenantReport struct {
	Tenant   string `json:"tenant"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors,omitempty"`
	Shed     int    `json:"shed"`
	Degraded int    `json:"degraded"`

	// Latency quantiles cover served requests only (refusals are fast
	// by design and would flatter the numbers).
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

// tenantAgg accumulates one tenant's counters during the run.
type tenantAgg struct {
	requests, errors, shed, degraded int
	latencies                        []float64
}

// Run replays the corpus and returns the report. It stops at the
// request count, the duration, or ctx — whichever comes first; partial
// runs still report what completed.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}

	before := scrapeReplicas(ctx, cfg.HTTPClient, cfg.Replicas)

	// The dispatcher owns the RNG: one goroutine samples key indices
	// (keeping the sequence deterministic regardless of worker timing)
	// and paces them onto the channel at the target QPS.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skew == SkewZipf {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Prompts)-1))
	}
	sample := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(len(cfg.Prompts))
	}
	// The tenant draw happens strictly after the key draw and only when
	// tenants are enabled, so a tenant-free run consumes the exact RNG
	// sequence older runs did — committed BENCH files stay replayable.
	// t0 carries TenantSkew× the weight of each other tenant.
	sampleTenant := func() string {
		if cfg.Tenants <= 0 {
			return ""
		}
		if cfg.Tenants == 1 {
			return "t0"
		}
		total := cfg.TenantSkew + float64(cfg.Tenants-1)
		draw := rng.Float64() * total
		if draw < cfg.TenantSkew {
			return "t0"
		}
		i := 1 + int(draw-cfg.TenantSkew)
		if i >= cfg.Tenants { // guard the draw == total edge
			i = cfg.Tenants - 1
		}
		return fmt.Sprintf("t%d", i)
	}

	type job struct {
		idx    int
		tenant string
	}
	idxCh := make(chan job)
	// Distinct is keyed by prompt text, not index: the corpus can carry
	// duplicate texts, and identical text means one cache key cluster-wide.
	distinct := make(map[string]struct{})
	start := time.Now()
	go func() {
		defer close(idxCh)
		// One pacing timer reused across iterations: time.After here
		// would allocate a timer per request that only frees when it
		// fires, which at load-test QPS is a steady heap of garbage.
		var pace *time.Timer
		defer func() {
			if pace != nil {
				pace.Stop()
			}
		}()
		for n := 0; ; n++ {
			if cfg.Requests > 0 && n >= cfg.Requests {
				return
			}
			if cfg.Duration > 0 && time.Since(start) >= cfg.Duration {
				return
			}
			select {
			case <-cfg.Stop:
				return
			default:
			}
			if cfg.QPS > 0 {
				next := start.Add(time.Duration(float64(n) / cfg.QPS * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					if pace == nil {
						pace = time.NewTimer(d)
					} else {
						// The only way past the previous select is draining
						// pace.C, so Reset never races a pending fire.
						pace.Reset(d)
					}
					select {
					case <-pace.C:
					case <-cfg.Stop:
						return
					case <-ctx.Done():
						return
					}
				}
			}
			idx := sample()
			distinct[cfg.Prompts[idx]] = struct{}{}
			select {
			case idxCh <- job{idx: idx, tenant: sampleTenant()}:
			case <-cfg.Stop:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	var (
		mu            sync.Mutex
		latencies     []float64
		requests      int
		errCount      int
		degradedCount int
		shedCount     int
		firstError    string
		tenants       map[string]*tenantAgg
	)
	if cfg.Tenants > 0 {
		tenants = make(map[string]*tenantAgg, cfg.Tenants)
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idxCh {
				t0 := time.Now()
				degraded, shed, err := doOne(ctx, cfg, cfg.Prompts[j.idx], j.tenant)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				requests++
				var agg *tenantAgg
				if tenants != nil {
					if agg = tenants[j.tenant]; agg == nil {
						agg = &tenantAgg{}
						tenants[j.tenant] = agg
					}
					agg.requests++
				}
				switch {
				case err != nil:
					errCount++
					if firstError == "" {
						firstError = err.Error()
					}
					if agg != nil {
						agg.errors++
					}
				case shed:
					// A deliberate 503 refusal: counted on its own, and
					// kept out of the latency window — a fast refusal is
					// not a served request.
					shedCount++
					if agg != nil {
						agg.shed++
					}
				default:
					latencies = append(latencies, ms)
					if degraded {
						degradedCount++
					}
					if agg != nil {
						agg.latencies = append(agg.latencies, ms)
						if degraded {
							agg.degraded++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	after := scrapeReplicas(ctx, cfg.HTTPClient, cfg.Replicas)

	r := Report{
		SchemaVersion:   ReportSchemaVersion,
		GeneratedUnix:   time.Now().Unix(),
		Mode:            cfg.Mode,
		Target:          cfg.Target,
		Skew:            cfg.Skew,
		Concurrency:     cfg.Concurrency,
		TargetQPS:       cfg.QPS,
		Seed:            cfg.Seed,
		Requests:        requests,
		Errors:          errCount,
		Degraded:        degradedCount,
		Shed:            shedCount,
		DistinctKeys:    len(distinct),
		DurationSeconds: elapsed.Seconds(),
		FirstError:      firstError,
	}
	if tenants != nil {
		r.TenantSkew = cfg.TenantSkew
		names := make([]string, 0, len(tenants))
		for name := range tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			agg := tenants[name]
			r.Tenants = append(r.Tenants, TenantReport{
				Tenant:       name,
				Requests:     agg.requests,
				Errors:       agg.errors,
				Shed:         agg.shed,
				Degraded:     agg.degraded,
				LatencyP50Ms: metrics.QuantileOrZero(agg.latencies, 0.50),
				LatencyP99Ms: metrics.QuantileOrZero(agg.latencies, 0.99),
			})
		}
	}
	if elapsed > 0 {
		r.AchievedQPS = float64(requests) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		r.LatencyP50Ms = metrics.QuantileOrZero(latencies, 0.50)
		r.LatencyP90Ms = metrics.QuantileOrZero(latencies, 0.90)
		r.LatencyP99Ms = metrics.QuantileOrZero(latencies, 0.99)
		for _, l := range latencies {
			if l > r.LatencyMaxMs {
				r.LatencyMaxMs = l
			}
		}
	}
	for i, u := range cfg.Replicas {
		rr := ReplicaReport{URL: u}
		switch {
		case before[i].err != nil:
			rr.Error = before[i].err.Error()
		case after[i].err != nil:
			rr.Error = after[i].err.Error()
		default:
			rr.Hits = after[i].hits - before[i].hits
			rr.Misses = after[i].misses - before[i].misses
			if lookups := rr.Hits + rr.Misses; lookups > 0 {
				rr.HitRatio = float64(rr.Hits) / float64(lookups)
			}
			r.ClusterHits += rr.Hits
			r.ClusterMisses += rr.Misses
		}
		r.Replicas = append(r.Replicas, rr)
	}
	if lookups := r.ClusterHits + r.ClusterMisses; lookups > 0 {
		r.ClusterHitRatio = float64(r.ClusterHits) / float64(lookups)
	}
	return r, nil
}

// doOne issues one request and reports whether the serving side flagged
// it below full quality (any non-empty X-PAS-Degraded) and whether it
// was shed with a deliberate 503.
func doOne(ctx context.Context, cfg Config, prompt, tenant string) (degraded, shed bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	var path string
	var payload any
	switch cfg.Mode {
	case ModeChat:
		path = "/v1/chat/completions"
		payload = map[string]any{
			"model": cfg.Model,
			"messages": []map[string]string{
				{"role": "user", "content": prompt},
			},
		}
	default:
		path = "/v1/augment"
		payload = map[string]string{"prompt": prompt, "salt": cfg.Salt}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return false, false, fmt.Errorf("loadgen: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+path, bytes.NewReader(body))
	if err != nil {
		return false, false, fmt.Errorf("loadgen: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	if tenant != "" {
		req.Header.Set("X-PAS-Tenant", tenant)
	}
	resp, err := cfg.HTTPClient.Do(req)
	if err != nil {
		return false, false, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	defer resp.Body.Close()
	degraded = resp.Header.Get("X-PAS-Degraded") != ""
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The serving side shed the request on purpose (overload or a
		// draining replica). Drain the body; this is not an error.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return degraded, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		// Drain a bounded slice for the error message.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return degraded, false, fmt.Errorf("loadgen: %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	// The header is the whole verdict (every non-full 200 carries it);
	// drain the body so the connection is reusable.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<20))
	return degraded, false, nil
}

// replicaCache is one scrape of a replica's cache counters.
type replicaCache struct {
	hits, misses int64
	err          error
}

// scrapeReplicas reads each replica's /v1/stats (the serving.Stats
// JSON shape); a failed scrape is recorded, not fatal.
func scrapeReplicas(ctx context.Context, hc *http.Client, replicas []string) []replicaCache {
	out := make([]replicaCache, len(replicas))
	for i, u := range replicas {
		out[i] = scrapeOne(ctx, hc, u)
	}
	return out
}

func scrapeOne(ctx context.Context, hc *http.Client, replica string) replicaCache {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/v1/stats", nil)
	if err != nil {
		return replicaCache{err: fmt.Errorf("loadgen: building stats request: %w", err)}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return replicaCache{err: fmt.Errorf("loadgen: scraping %s: %w", replica, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return replicaCache{err: fmt.Errorf("loadgen: scraping %s: status %d", replica, resp.StatusCode)}
	}
	var wire struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&wire); err != nil {
		return replicaCache{err: fmt.Errorf("loadgen: decoding %s stats: %w", replica, err)}
	}
	return replicaCache{hits: wire.Cache.Hits, misses: wire.Cache.Misses}
}
