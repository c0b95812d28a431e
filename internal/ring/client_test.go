package ring

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pas "repro"
	"repro/internal/wire"
)

// fakeReplica is a minimal passerve stand-in: /v1/augment echoes an
// augmented prompt and records which prompts it served; /v1/status
// answers probes.
type fakeReplica struct {
	name  string
	delay atomic.Int64 // nanoseconds added to every augment
	fail  atomic.Int32 // HTTP status to answer augments with; 0 = 200
	level atomic.Value // X-PAS-Degraded value set on augment responses

	mu     sync.Mutex
	served map[string]int // prompt -> times served here
	srv    *httptest.Server
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name, served: make(map[string]int)}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/status":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"status":"ok"}`))
		case "/v1/augment":
			if d := f.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if code := f.fail.Load(); code != 0 {
				http.Error(w, "injected failure", int(code))
				return
			}
			var req wire.AugmentRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			f.mu.Lock()
			f.served[req.Prompt]++
			f.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			if lv, _ := f.level.Load().(string); lv != "" {
				w.Header().Set("X-PAS-Degraded", lv)
			}
			_ = json.NewEncoder(w).Encode(map[string]any{
				"augmented": req.Prompt + "\n[" + f.name + "]",
			})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) servedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.served {
		n += c
	}
	return n
}

func newTestCluster(t *testing.T, n int, mutate func(*Config)) (*Client, []*fakeReplica) {
	t.Helper()
	reps := make([]*fakeReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newFakeReplica(t, fmt.Sprintf("r%d", i))
		urls[i] = reps[i].srv.URL
	}
	cfg := Config{Replicas: urls, Degrade: true}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, reps
}

// TestClientValidation: satellite 1's contract — bad replica lists fail
// at construction with a clear error, not at the first request.
func TestClientValidation(t *testing.T) {
	cases := [][]string{
		nil,
		{""},
		{"not-a-url"},
		{"ftp://host:1"},
		{"http://"},
		{"http://host:1/path"},
		{"http://host:1?q=1"},
	}
	for _, replicas := range cases {
		if _, err := NewClient(Config{Replicas: replicas}); err == nil {
			t.Fatalf("NewClient(%v) succeeded, want validation error", replicas)
		}
	}
	c, err := NewClient(Config{Replicas: []string{"http://host:1/", " http://host:1", "http://other:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ring().Members(); len(got) != 2 {
		t.Fatalf("dedup/trim failed: members %v", got)
	}
}

// TestClientLocality: repeated prompts land on exactly one replica each
// — the consistent-hash routing preserves per-key cache locality.
func TestClientLocality(t *testing.T) {
	c, reps := newTestCluster(t, 3, nil)
	ctx := context.Background()

	const keysN, repsN = 40, 5
	for rep := 0; rep < repsN; rep++ {
		for i := 0; i < keysN; i++ {
			prompt := fmt.Sprintf("prompt %d", i)
			aug, deg, err := c.AugmentContextDegraded(ctx, prompt, "")
			if err != nil || deg {
				t.Fatalf("augment: err=%v degraded=%v", err, deg)
			}
			if !strings.HasPrefix(aug, prompt+"\n[r") {
				t.Fatalf("unexpected augmented text %q", aug)
			}
		}
	}
	// Every prompt must have been served by exactly one replica.
	for i := 0; i < keysN; i++ {
		prompt := fmt.Sprintf("prompt %d", i)
		owners := 0
		for _, r := range reps {
			r.mu.Lock()
			n := r.served[prompt]
			r.mu.Unlock()
			if n > 0 {
				owners++
				if n != repsN {
					t.Fatalf("prompt %q served %d times by %s, want %d", prompt, n, r.name, repsN)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("prompt %q served by %d replicas, want exactly 1", prompt, owners)
		}
	}
	// And the traffic spread across more than one replica overall.
	busy := 0
	for _, r := range reps {
		if r.servedCount() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("all keys landed on %d replica(s); ring is not spreading", busy)
	}
}

// TestClientFailover: a hard-down owner is skipped — the request is
// served by the successor, counted as a failover, and the dead member
// is suspected by the data path.
func TestClientFailover(t *testing.T) {
	c, reps := newTestCluster(t, 3, func(cfg *Config) {
		cfg.RequestTimeout = 2 * time.Second
	})
	ctx := context.Background()

	// Find a prompt owned by replica 0 so we know who to kill.
	prompt := ""
	for i := 0; ; i++ {
		p := fmt.Sprintf("victim prompt %d", i)
		if owner, _ := c.Owner(p, ""); owner == reps[0].srv.URL {
			prompt = p
			break
		}
	}
	reps[0].srv.Close()

	aug, deg, err := c.AugmentContextDegraded(ctx, prompt, "")
	if err != nil || deg {
		t.Fatalf("failover augment: err=%v degraded=%v", err, deg)
	}
	if !strings.Contains(aug, "[r1]") && !strings.Contains(aug, "[r2]") {
		t.Fatalf("expected a successor to serve, got %q", aug)
	}
	s := c.Stats()
	if s.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", s.Failovers)
	}
	if st := c.Membership().Snapshot()[0]; st.State == "up" {
		t.Fatalf("dead owner still marked up after data-path error")
	}
}

// TestClientAllDownDegrades: with every replica gone the client serves
// the raw prompt flagged degraded (Degrade on) or a typed error
// (Degrade off) — never a hang, never a silent fallback.
func TestClientAllDownDegrades(t *testing.T) {
	c, reps := newTestCluster(t, 2, func(cfg *Config) {
		cfg.RequestTimeout = time.Second
		cfg.Health.DownAfter = 1
	})
	for _, r := range reps {
		r.srv.Close()
	}
	ctx := context.Background()

	aug, deg, err := c.AugmentContextDegraded(ctx, "still works", "")
	if err != nil {
		t.Fatalf("degrade mode returned error: %v", err)
	}
	if !deg || aug != "still works" {
		t.Fatalf("want raw prompt + degraded, got %q degraded=%v", aug, deg)
	}
	if c.Stats().Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", c.Stats().Degraded)
	}

	// The first sweep suspected both members; the second one's failures
	// cross DownAfter and evict them, emptying the ring — after which
	// requests degrade on ErrNoReplicas without even dialing.
	if _, _, err := c.AugmentContextDegraded(ctx, "second", ""); err != nil {
		t.Fatalf("second degraded request: %v", err)
	}
	if c.Membership().live() != 0 {
		t.Fatalf("members still live after hard failures: %+v", c.Membership().Snapshot())
	}
	if aug, deg, err := c.AugmentContextDegraded(ctx, "empty ring", ""); err != nil || !deg || aug != "empty ring" {
		t.Fatalf("empty-ring request: %q %v %v", aug, deg, err)
	}

	cFailClosed, reps2 := newTestCluster(t, 1, func(cfg *Config) {
		cfg.Degrade = false
		cfg.RequestTimeout = time.Second
	})
	reps2[0].srv.Close()
	if _, _, err := cFailClosed.AugmentContextDegraded(ctx, "p", ""); err == nil {
		t.Fatal("fail-closed client returned nil error with all replicas down")
	}
}

// TestClientHedging: a pathologically slow owner does not hold the
// request hostage — the hedge races the successor and wins fast. The
// slow owner keeps its key ownership (locality is preserved for the
// healthy case), but this request is served within the hedge budget.
func TestClientHedging(t *testing.T) {
	c, reps := newTestCluster(t, 3, func(cfg *Config) {
		cfg.Hedge = true
		cfg.HedgeMin = 10 * time.Millisecond
		cfg.HedgeMax = 20 * time.Millisecond
		cfg.RequestTimeout = 10 * time.Second
	})
	ctx := context.Background()

	prompt := ""
	for i := 0; ; i++ {
		p := fmt.Sprintf("slow prompt %d", i)
		if owner, _ := c.Owner(p, ""); owner == reps[0].srv.URL {
			prompt = p
			break
		}
	}
	reps[0].delay.Store(int64(3 * time.Second))

	start := time.Now()
	aug, deg, err := c.AugmentContextDegraded(ctx, prompt, "")
	elapsed := time.Since(start)
	if err != nil || deg {
		t.Fatalf("hedged augment: err=%v degraded=%v", err, deg)
	}
	if strings.Contains(aug, "[r0]") {
		t.Fatalf("slow owner won the race implausibly fast: %q", aug)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("hedge never fired; request took %v", elapsed)
	}
}

// TestClientBreaker: a replica that keeps erroring opens its breaker,
// after which calls skip it without dialing (its successor serves), and
// the breaker state surfaces in Stats.
func TestClientBreaker(t *testing.T) {
	c, reps := newTestCluster(t, 2, func(cfg *Config) {
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = time.Minute
		cfg.RequestTimeout = 2 * time.Second
	})
	ctx := context.Background()

	prompt := ""
	for i := 0; ; i++ {
		p := fmt.Sprintf("breaker prompt %d", i)
		if owner, _ := c.Owner(p, ""); owner == reps[0].srv.URL {
			prompt = p
			break
		}
	}
	reps[0].fail.Store(http.StatusInternalServerError)

	for i := 0; i < 4; i++ {
		if _, _, err := c.AugmentContextDegraded(ctx, prompt, ""); err != nil {
			t.Fatalf("request %d failed despite successor: %v", i, err)
		}
	}
	if got := c.Stats().Breakers[reps[0].srv.URL]; got != "open" {
		t.Fatalf("owner breaker state %q, want open", got)
	}
	// The failing replica saw exactly BreakerThreshold dials; the rest
	// were refused locally.
	if n := reps[0].servedCount(); n != 0 {
		t.Fatalf("failing replica recorded %d served augments, want 0", n)
	}
}

// TestClientLevelPropagates: a replica's X-PAS-Degraded flag, whatever
// its value, is one verdict — "1", or "trim" and "raw", which only a
// replica from before the two-rung ladder sends, mid rolling upgrade.
// The client reports each degraded and near-caches none, and the proxy
// in front flags the chat with the one value there is, "1".
func TestClientLevelPropagates(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer upstream.Close()
	for _, flag := range []string{"1", "trim", "raw"} {
		t.Run(flag, func(t *testing.T) {
			c, reps := newTestCluster(t, 2, func(cfg *Config) { cfg.CacheSize = 16 })
			for _, r := range reps {
				r.level.Store(flag)
			}
			if _, degraded, err := c.AugmentContextDegraded(context.Background(), "p", "s"); err != nil || !degraded {
				t.Fatalf("(degraded, err) = (%v, %v), want true", degraded, err)
			}
			if st := c.Stats().Cache; st.Entries != 0 || st.Hits != 0 {
				t.Fatalf("near cache %+v after flagged replies, want nothing stored", st)
			}
			proxy, err := pas.NewProxyWith(c, upstream.URL)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			proxy.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/chat/completions",
				strings.NewReader(`{"messages":[{"role":"user","content":"p"}]}`)))
			if got := rec.Header().Values(wire.DegradedHeader); rec.Code != http.StatusOK || len(got) != 1 || got[0] != "1" {
				t.Fatalf("through the proxy: %d, X-PAS-Degraded %q; want 200 and exactly \"1\"", rec.Code, got)
			}
		})
	}
}

// Ring exposes the routing ring (stats surfaces, tests).
func (c *Client) Ring() *Ring { return c.ring }
