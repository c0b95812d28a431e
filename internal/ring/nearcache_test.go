package ring

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The answers a modelFleet host can be scripted to give on /v1/augment.
const (
	answerFull    = iota // 200, prompt + the host's tail, no degraded header
	answerTrim           // 200 flagged "trim", prompt extended: a replica from before the two-rung ladder, mid rolling upgrade
	answerRaw            // 200 flagged "1", the prompt echoed
	answerForeign        // 200 at full quality whose augmented does not extend the prompt
	answerBare           // 200 at full quality, the prompt and nothing more
	answerShed           // 503
	answerRefuse         // transport error
	numAnswers
)

// modelFleet is a fleet as an http.RoundTripper whose every answer is
// scripted and whose tails name the host and its model version, so a
// stale complement is told from a current one by its bytes.
type modelFleet struct {
	mu      sync.Mutex
	status  map[string]string // host -> /v1/status body; "" refuses the connection
	answer  map[string]int    // host -> one of the answers above
	version map[string]int    // host -> model version, part of every tail it serves
	calls   int               // /v1/augment round trips, refused ones included
	// served is the last 200 an augment got: its augmented string and
	// degraded header.
	served struct{ augmented, level string }
	// hold, when non-nil, blocks every augment after it has announced
	// itself on arrived.
	hold, arrived chan struct{}
}

func newModelFleet() *modelFleet {
	return &modelFleet{status: map[string]string{}, answer: map[string]int{}, version: map[string]int{}}
}

func (f *modelFleet) tail(host string) string {
	return fmt.Sprintf("\n[%s v%d]", host, f.version[host])
}

func (f *modelFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	reply := func(code int, level, body string) (*http.Response, error) {
		h := http.Header{}
		if level != "" {
			h.Set(wire.DegradedHeader, level)
		}
		return &http.Response{StatusCode: code, Header: h, Body: io.NopCloser(strings.NewReader(body)), Request: req}, nil
	}
	if req.URL.Path != "/v1/augment" {
		f.mu.Lock()
		body := f.status[host]
		f.mu.Unlock()
		if body == "" {
			return nil, errors.New("connection refused")
		}
		return reply(http.StatusOK, "", body)
	}
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	ar, ok := wire.DecodeAugmentRequest(raw)
	if !ok {
		return nil, fmt.Errorf("modelFleet: augment body %q", raw)
	}
	f.mu.Lock()
	f.calls++
	hold, arrived := f.hold, f.arrived
	mode, tail := f.answer[host], f.tail(host)
	f.mu.Unlock()
	if hold != nil {
		arrived <- struct{}{}
		<-hold
	}
	var augmented, level string
	switch mode {
	case answerFull:
		augmented = ar.Prompt + tail
	case answerTrim:
		augmented, level = ar.Prompt+"\n[cheap]", "trim"
	case answerRaw:
		augmented, level = ar.Prompt, "1"
	case answerForeign:
		augmented = "unrelated" + tail
	case answerBare:
		augmented = ar.Prompt
	case answerShed:
		return reply(http.StatusServiceUnavailable, "", "shed")
	default:
		return nil, errors.New("connection refused")
	}
	f.mu.Lock()
	f.served.augmented, f.served.level = augmented, level
	f.mu.Unlock()
	return reply(http.StatusOK, level, string(wire.AppendAugmentResponse(nil, &wire.AugmentResponse{Prompt: ar.Prompt, Augmented: augmented})))
}

// fakeClock is a settable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }

// withNearCache replaces c's near cache by one on the given clock.
func withNearCache(c *Client, size int, ttl time.Duration, now func() time.Time) {
	c.near = newNearCache(size, ttl, now)
	c.mem.onNewInstance = c.near.flush
}

// TestNearCacheMatchesReferenceModel drives seeded schedules of
// requests, scripted replica answers, fleet outages with Degrade on and
// off, restarts (an instance change seen by a later probe), clock jumps
// past the TTL and membership changes through the client, against a
// reference map of what may be remembered: key -> the last full-quality,
// prompt-extending answer a replica gave since the last flush, and when.
// After every request: a near hit returns exactly that entry and only
// while it is fresh; whatever was not a hit is what a replica served
// just now with its flag, or the flagged fail-open; nothing below full
// quality is ever remembered; and hits + misses == requests.
func TestNearCacheMatchesReferenceModel(t *testing.T) {
	const hosts, steps, ttl = 4, 1500, 10 * time.Second
	type remembered struct {
		tail string
		at   time.Time
	}
	for seed := int64(1); seed <= 8; seed++ {
		// Odd seeds hold every key, so the model predicts each hit; even
		// seeds evict, so a hit is only checked when it happens.
		size := 1024
		if seed%2 == 0 {
			size = 16 // one entry per shard
		}
		rng := rand.New(rand.NewSource(seed))
		fleet := newModelFleet()
		clock := &fakeClock{t: time.Unix(1_790_000_000, 0)}
		url := func(i int) string { return fmt.Sprintf("http://h%d:1", i) }
		host := func(i int) string { return fmt.Sprintf("h%d:1", i) }
		c, err := NewClient(Config{
			Replicas:   []string{url(0), url(1), url(2)},
			Health:     HealthConfig{DownAfter: 2},
			HTTPClient: &http.Client{Transport: fleet},
			CacheSize:  size,
			CacheTTL:   ttl,
		})
		if err != nil {
			t.Fatal(err)
		}
		withNearCache(c, size, ttl, clock.Now)

		ref := map[string]remembered{}
		recorded := map[string]string{url(0): "", url(1): "", url(2): ""} // member -> instance on its record
		var requests, flushes, hits int64
		ctx := context.Background()
		fresh := func(key string) (remembered, bool) {
			e, ok := ref[key]
			return e, ok && !clock.t.After(e.at.Add(ttl))
		}

		for step := 0; step < steps; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			i := rng.Intn(hosts)
			switch op := rng.Intn(12); {
			case op < 5: // request
				prompt := fmt.Sprintf("prompt %d", int(rng.ExpFloat64()*6)%40)
				salt := []string{"", "s"}[rng.Intn(2)]
				key := shardKey(prompt, salt)
				want, predicted := fresh(key)
				before := fleet.calls
				fleet.served.augmented, fleet.served.level = "", "no reply"
				augmented, level, err := c.AugmentContextLevel(ctx, prompt, salt)
				requests++
				s := c.Stats()
				if s.Cache.Hits+s.Cache.Misses != requests || s.Requests != requests {
					t.Fatalf("%s: %d hits + %d misses, %d ring requests; %d made", where, s.Cache.Hits, s.Cache.Misses, s.Requests, requests)
				}
				if hit := s.Cache.Hits > hits; hit {
					hits++
					if !predicted || err != nil || level != "" || augmented != prompt+want.tail || fleet.calls != before {
						t.Fatalf("%s: near hit for %q = (%q, %q, %v) after %d hops; remembered %+v (fresh %v)",
							where, key, augmented, level, err, fleet.calls-before, want, predicted)
					}
					break
				}
				if predicted && size == 1024 {
					t.Fatalf("%s: %q hopped, but %+v was remembered and nothing evicts", where, key, want)
				}
				switch {
				case err != nil:
					if c.cfg.Degrade || fleet.served.level != "no reply" {
						t.Fatalf("%s: err %v with Degrade %v, fleet last served %+v", where, err, c.cfg.Degrade, fleet.served)
					}
				case fleet.served.level == "no reply":
					// No replica answered 200: this is the fail-open.
					if !c.cfg.Degrade || augmented != prompt || level != "1" {
						t.Fatalf("%s: (%q, %q) with no replica answering, Degrade %v; want the flagged raw prompt", where, augmented, level, c.cfg.Degrade)
					}
				default:
					if augmented != fleet.served.augmented || level != fleet.served.level {
						t.Fatalf("%s: (%q, %q), but the replica served %+v", where, augmented, level, fleet.served)
					}
					if level == "" && len(augmented) > len(prompt) && strings.HasPrefix(augmented, prompt) {
						ref[key] = remembered{tail: augmented[len(prompt):], at: clock.t}
					}
				}
			case op == 5: // script one host's answers
				fleet.answer[host(i)] = rng.Intn(numAnswers)
			case op == 6: // the whole fleet goes down, or comes back
				mode := []int{answerRefuse, answerFull}[rng.Intn(2)]
				for h := 0; h < hosts; h++ {
					fleet.answer[host(h)] = mode
				}
				c.cfg.Degrade = rng.Intn(2) == 0
			case op == 7: // restart: a new model version behind a new instance
				fleet.version[host(i)]++
				fleet.status[host(i)] = fmt.Sprintf(`{"status":"ok","instance":"%s#%d"}`, host(i), fleet.version[host(i)])
			case op == 8: // some other status body, the instance kept, dropped or unreadable
				inst := fmt.Sprintf("%s#%d", host(i), fleet.version[host(i)])
				fleet.status[host(i)] = []string{"", "plain ok", `{"status":"ok"}`,
					`{"status":"draining","instance":"` + inst + `"}`, `{"status":"ok","pressure":"raw","instance":"` + inst + `"}`,
					`{"status":"ok","instance":7}`}[rng.Intn(6)]
			case op == 9: // probe
				c.mem.ProbeOne(ctx, url(i))
				last, member := recorded[url(i)]
				if body := fleet.status[host(i)]; member && body != "" {
					reads := ""
					if _, after, ok := strings.Cut(body, `"instance":"`); ok {
						reads = strings.TrimSuffix(after, `"}`)
					}
					if reads != last {
						recorded[url(i)] = reads
						flushes++
						clear(ref)
					}
				}
			case op == 10:
				clock.t = clock.t.Add(time.Duration(rng.Int63n(int64(2 * ttl))))
			case op == 11:
				if _, member := recorded[url(i)]; member && rng.Intn(2) == 0 {
					if _, err := c.RemoveReplica(url(i)); err != nil {
						t.Fatal(err)
					}
					delete(recorded, url(i))
				} else {
					if _, _, err := c.AddReplica(url(i)); err != nil {
						t.Fatal(err)
					}
					if !member {
						recorded[url(i)] = ""
					}
				}
			}
			if s := c.Stats().Cache; s.Flushes != flushes || s.Entries > size {
				t.Fatalf("%s: %d flushes, %d entries; want %d flushes, at most %d entries", where, s.Flushes, s.Entries, flushes, size)
			}
			for _, m := range c.Stats().Members {
				if m.Instance != recorded[m.URL] {
					t.Fatalf("%s: member %s shows instance %q, last probe read %q", where, m.URL, m.Instance, recorded[m.URL])
				}
			}
		}
		if hits == 0 || flushes == 0 || requests-hits == 0 {
			t.Fatalf("seed %d exercised nothing: %d requests, %d hits, %d flushes", seed, requests, hits, flushes)
		}
		if s := c.Stats().Cache; (size == 16) != (s.Evictions > 0) || s.Expiries == 0 {
			t.Fatalf("seed %d (size %d): %d evictions, %d expiries", seed, size, s.Evictions, s.Expiries)
		}
	}
}

// TestNearCacheFlushDropsInFlightHop: a hop that left before a flush and
// returns after it carries an answer of the fleet as it was. It must not
// become readable: the request stores into the generation it looked up
// in, which the flush dropped.
func TestNearCacheFlushDropsInFlightHop(t *testing.T) {
	fleet := newModelFleet()
	fleet.hold, fleet.arrived = make(chan struct{}), make(chan struct{})
	fleet.status["a:1"] = `{"status":"ok","instance":"second"}`
	c, err := NewClient(Config{Replicas: []string{"http://a:1"}, CacheSize: 64, HTTPClient: &http.Client{Transport: fleet}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const callers = 4
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, level, err := c.AugmentContextLevel(ctx, "p", "s"); err != nil || level != "" || got != "p\n[a:1 v0]" {
				t.Errorf("held request = (%q, %q, %v)", got, level, err)
			}
		}()
	}
	for i := 0; i < callers; i++ {
		<-fleet.arrived
	}
	// The replica restarts with another model while the hops are out.
	fleet.mu.Lock()
	fleet.version["a:1"] = 1
	fleet.mu.Unlock()
	c.mem.ProbeOne(ctx, "http://a:1")
	if s := c.Stats().Cache; s.Flushes != 1 {
		t.Fatalf("probe of a new instance flushed %d times, want 1", s.Flushes)
	}
	close(fleet.hold)
	wg.Wait()

	fleet.mu.Lock()
	fleet.hold = nil
	fleet.mu.Unlock()
	if _, ok := c.near.gen.Load().Get(shardKey("p", "s")); ok {
		t.Fatal("the answer of a hop in flight across the flush is readable after it")
	}
	if got, _, err := c.AugmentContextLevel(ctx, "p", "s"); err != nil || got != "p\n[a:1 v1]" {
		t.Fatalf("after the flush = (%q, %v), want the restarted replica's answer", got, err)
	}
	if got, _, _ := c.AugmentContextLevel(ctx, "p", "s"); got != "p\n[a:1 v1]" || fleet.calls != callers+1 {
		t.Fatalf("repeat = %q after %d hops; want the new answer from the near cache, %d hops", got, fleet.calls, callers+1)
	}
}

// TestNearCacheOffByDefault: the zero Config has no near cache — every
// request hops, and the stats block reads zero.
func TestNearCacheOffByDefault(t *testing.T) {
	fleet := newModelFleet()
	c, err := NewClient(Config{Replicas: []string{"http://a:1"}, HTTPClient: &http.Client{Transport: fleet}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.AugmentContextLevel(context.Background(), "p", "s"); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); fleet.calls != 3 || s.Cache != (CacheStats{}) {
		t.Fatalf("%d hops for 3 requests, cache block %+v; want 3 and zeros", fleet.calls, s.Cache)
	}
}

// TestNearCacheSurfaces: /v1/stats carries the cache block with
// passerve's five keys plus flushes, /metricsz the six pas_ring_cache_
// families, a near hit its own ring.route span with no hop under it.
func TestNearCacheSurfaces(t *testing.T) {
	fleet := newModelFleet()
	fleet.status["a:1"] = `{"status":"ok","instance":"i1"}`
	c, err := NewClient(Config{Replicas: []string{"http://a:1"}, CacheSize: 8, HTTPClient: &http.Client{Transport: fleet}})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1})
	c.mem.ProbeOne(context.Background(), "http://a:1")
	for i := 0; i < 3; i++ {
		ctx, root := tracer.StartSpan(context.Background(), "test")
		if _, _, err := c.AugmentContextLevel(ctx, "p", ""); err != nil {
			t.Fatal(err)
		}
		root.End()
	}
	rec := httptest.NewRecorder()
	c.StatsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	body := strings.Join(strings.Fields(rec.Body.String()), "")
	if want := `"cache":{"hits":2,"misses":1,"evictions":0,"expiries":0,"entries":1,"flushes":1}`; !strings.Contains(body, want) {
		t.Fatalf("/v1/stats lacks %s:\n%s", want, rec.Body)
	}
	if !strings.Contains(body, `"instance":"i1"`) {
		t.Fatalf("/v1/stats members lack the probed instance:\n%s", rec.Body)
	}

	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"pas_ring_cache_hits_total 2", "pas_ring_cache_misses_total 1", "pas_ring_cache_evictions_total 0",
		"pas_ring_cache_expiries_total 0", "pas_ring_cache_flushes_total 1", "pas_ring_cache_entries 1",
	} {
		if !strings.Contains(text.String(), "\n"+line+"\n") {
			t.Errorf("/metricsz lacks %q", line)
		}
	}

	var hitRoutes, hops int
	for _, tr := range tracer.Snapshot().Recent {
		for _, sp := range tr.Spans {
			switch {
			case sp.Name == "ring.route" && slices.Contains(sp.Attrs, obs.Attr{Key: "ring.cache", Value: "hit"}):
				hitRoutes++
			case sp.Name == "ring.augment":
				hops++
			}
		}
	}
	if hitRoutes != 2 || hops != 1 {
		t.Fatalf("%d ring.route spans tagged ring.cache=hit and %d ring.augment spans; want 2 and 1", hitRoutes, hops)
	}
}

// TestAugmentAllocations holds what one request allocates in the
// routing tier itself, against a transport that answers from memory: a
// near hit is the key and the prompt + tail concatenation (2), plus the
// ring.route span under a sampled trace (5 measured); a miss is the hop,
// without the per-call dedup set and URL parse it used to pay (41
// measured, 43 at the parent commit with the same transport).
func TestAugmentAllocations(t *testing.T) {
	fleet := newModelFleet()
	c, err := NewClient(Config{Replicas: []string{"http://a:1", "http://b:1", "http://c:1"}, CacheSize: 64, HTTPClient: &http.Client{Transport: fleet}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prompt, salt := "Explain how tides form, and why there are two a day.", "s"
	call := func() {
		if _, level, err := c.AugmentContextLevel(ctx, prompt, salt); err != nil || level != "" {
			t.Fatalf("augment: %q, %v", level, err)
		}
	}
	call()
	hit := testing.AllocsPerRun(200, call)
	// Under a sampled trace, as in the daemons: the span and the context
	// that carries it come on top.
	var root *obs.Span
	ctx, root = obs.NewTracer(obs.TraceConfig{SampleEvery: 1}).StartSpan(ctx, "test")
	traced := testing.AllocsPerRun(200, call)
	root.End()
	ctx = context.Background()
	c.near = nil
	miss := testing.AllocsPerRun(200, call)
	t.Logf("allocations per request: near hit %.0f (%.0f traced), miss %.0f", hit, traced, miss)
	if hit > 2 || traced > 6 {
		t.Errorf("a near hit allocates %.0f times, %.0f traced; want at most 2 (the key, the answer) and 6", hit, traced)
	}
	// 41 measured; one more under -race, where sync.Pool drops a share
	// of the reply buffers it is handed back.
	if miss > 42 {
		t.Errorf("a miss allocates %.0f times, want at most 42", miss)
	}
}

// TestClientReusesReplicaConnections is the ring's twin of pasproxy's
// TestProxyReusesUpstreamConnections: a proxy's callers each hold one
// replica connection and leave it idle while they talk to the upstream,
// so with every key on one replica the default transport must keep as
// many idle connections to that host as there are callers. At 16 per
// host, these 24 callers opened 60 to 80 connections over ten rounds.
func TestClientReusesReplicaConnections(t *testing.T) {
	const callers, rounds = 24, 10
	var opened, arrived atomic.Int64
	allIn := make(chan struct{})
	replica := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		// The first round is held until every caller is in flight, so
		// that each has dialled its own connection before any is lent.
		if arrived.Add(1) == callers {
			close(allIn)
		}
		<-allIn
		_, _ = w.Write([]byte(`{"augmented":"p\nq"}`))
	}))
	replica.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	replica.Start()
	defer replica.Close()
	c, err := NewClient(Config{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.hc.CloseIdleConnections()

	// Every round ends with all callers' connections idle at once.
	roundDone := make([]sync.WaitGroup, rounds)
	for i := range roundDone {
		roundDone[i].Add(callers)
	}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if _, _, err := c.AugmentContextLevel(context.Background(), "p", ""); err != nil {
					t.Error(err)
				}
				roundDone[j].Done()
				roundDone[j].Wait()
			}
		}()
	}
	wg.Wait()
	t.Logf("%d callers x %d rounds opened %d connections", callers, rounds, opened.Load())
	if opened.Load() != callers {
		t.Fatalf("%d connections for %d closed-loop callers: idle connections are not being kept", opened.Load(), callers)
	}
}
