package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingFunc returns a Func that counts invocations and yields a
// deterministic per-key result.
func countingFunc(calls *int64) Func {
	return func(prompt, salt string) string {
		atomic.AddInt64(calls, 1)
		return "pc:" + prompt + "/" + salt
	}
}

func mustNew(t *testing.T, fn Func, cfg Config) *Core {
	t.Helper()
	c, err := New(fn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	ok := func(string, string) string { return "" }
	cases := []struct {
		name string
		fn   Func
		cfg  Config
	}{
		{"nil fn", nil, Config{}},
		{"negative shards", ok, Config{CacheShards: -1}},
		{"negative ttl", ok, Config{CacheTTL: -time.Second}},
		{"negative inflight", ok, Config{MaxInFlight: -2}},
		{"negative queue depth", ok, Config{QueueDepth: -1}},
		{"negative queue wait", ok, Config{QueueWait: -time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.fn, tc.cfg); err == nil {
				t.Errorf("New(%+v) should fail", tc.cfg)
			}
		})
	}
	if _, err := New(ok, Config{}); err != nil {
		t.Fatalf("zero config should apply defaults, got %v", err)
	}
}

func TestDoComputesThenServesFromCache(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{})
	ctx := context.Background()

	v1, err := c.Do(ctx, "explain tides", "s", "m1")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Do(ctx, "explain tides", "s", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || v1 != "pc:explain tides/s" {
		t.Fatalf("values diverge: %q vs %q", v1, v2)
	}
	if calls != 1 {
		t.Fatalf("complement called %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Cache.Hits != 1 || s.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", s.Cache)
	}
	if s.Requests != 2 || s.Completed != 2 {
		t.Fatalf("requests/completed = %d/%d, want 2/2", s.Requests, s.Completed)
	}
}

// TestKeyDimensionsAreSeparated guards the NUL-separated key: differing
// splits of the same concatenation, and differing models, must not
// share entries.
func TestKeyDimensionsAreSeparated(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{})
	ctx := context.Background()
	for _, req := range [][3]string{
		{"ab", "c", "m"},
		{"a", "bc", "m"},
		{"ab", "c", "m2"},
	} {
		if _, err := c.Do(ctx, req[0], req[1], req[2]); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("complement called %d times, want 3 (key collision)", calls)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{CacheTTL: time.Minute, Now: clock})
	ctx := context.Background()

	if _, err := c.Do(ctx, "p", "", "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, "p", "", "m"); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fresh entry recomputed: %d calls", calls)
	}
	now = now.Add(time.Minute + time.Second)
	if _, err := c.Do(ctx, "p", "", "m"); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("expired entry not recomputed: %d calls", calls)
	}
	s := c.Stats()
	if s.Cache.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", s.Cache.Expiries)
	}
}

func TestCacheEviction(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{CacheSize: 2, CacheShards: 1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Do(ctx, fmt.Sprintf("p%d", i), "", "m"); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Cache.Evictions != 1 || s.Cache.Entries != 2 {
		t.Fatalf("evictions/entries = %d/%d, want 1/2", s.Cache.Evictions, s.Cache.Entries)
	}
	// p0 was evicted (LRU), so it recomputes; p2 is still cached.
	if _, err := c.Do(ctx, "p0", "", "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, "p2", "", "m"); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("complement called %d times, want 4", calls)
	}
}

// TestConcurrentIdenticalPromptsComputeOnce is the dedup acceptance
// check: N concurrent requests for the same key must trigger exactly
// one underlying complement call. The complement function blocks until
// all other requests have attached as single-flight followers, so the
// overlap is deterministic, not timing-dependent.
func TestConcurrentIdenticalPromptsComputeOnce(t *testing.T) {
	const followers = 31
	var calls int64
	k := Key("same prompt", "s", "m")
	var c *Core
	fn := func(prompt, salt string) string {
		atomic.AddInt64(&calls, 1)
		deadline := time.Now().Add(5 * time.Second)
		for c.flight.waiters(k) < followers {
			if time.Now().After(deadline) {
				break // let the assertion below report the failure
			}
			time.Sleep(time.Millisecond)
		}
		return "pc"
	}
	// Cache disabled so every request reaches the single-flight layer.
	c = mustNew(t, fn, Config{CacheSize: -1})

	var wg sync.WaitGroup
	results := make([]string, followers+1)
	errs := make([]error, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), "same prompt", "s", "m")
		}(i)
	}
	wg.Wait()

	if calls != 1 {
		t.Fatalf("complement called %d times for one key, want exactly 1", calls)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i] != "pc" {
			t.Fatalf("request %d got %q", i, results[i])
		}
	}
	if s := c.Stats(); s.DedupHits != followers {
		t.Fatalf("dedup hits = %d, want %d", s.DedupHits, followers)
	}
}

// occupied builds a core whose single computation slot is held by a
// blocked request, plus the release function for it.
func occupied(t *testing.T, cfg Config) (*Core, func()) {
	t.Helper()
	release := make(chan struct{})
	fn := func(prompt, salt string) string {
		if prompt == "occupier" {
			<-release
		}
		return "pc:" + prompt
	}
	cfg.MaxInFlight = 1
	cfg.CacheSize = -1 // keep every request on the admission path
	c := mustNew(t, fn, cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.Do(context.Background(), "occupier", "", "m"); err != nil {
			t.Errorf("occupier failed: %v", err)
		}
	}()
	waitFor(t, func() bool { return c.Stats().InFlight == 1 })
	var once sync.Once
	return c, func() {
		once.Do(func() { close(release); <-done })
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLoadShedding(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancelExpired()

	cases := []struct {
		name    string
		cfg     Config
		ctx     context.Context
		timeout time.Duration // when set, ctx is built in the subtest with this deadline
		wantErr error
		check   func(Stats) error
	}{
		{
			name:    "queue disabled sheds instantly",
			cfg:     Config{QueueDepth: 0},
			ctx:     context.Background(),
			wantErr: ErrQueueFull,
			check: func(s Stats) error {
				if s.ShedQueueFull != 1 {
					return fmt.Errorf("shed_queue_full = %d, want 1", s.ShedQueueFull)
				}
				return nil
			},
		},
		{
			name:    "wait budget exhausted",
			cfg:     Config{QueueDepth: 4, QueueWait: 20 * time.Millisecond},
			ctx:     context.Background(),
			wantErr: errDeadline,
			check: func(s Stats) error {
				if s.ShedDeadline != 1 {
					return fmt.Errorf("shed_deadline = %d, want 1", s.ShedDeadline)
				}
				return nil
			},
		},
		{
			name:    "context deadline tightens the wait",
			cfg:     Config{QueueDepth: 4, QueueWait: time.Hour},
			timeout: 30 * time.Millisecond,
			wantErr: errDeadline,
		},
		{
			name:    "already-cancelled context",
			cfg:     Config{QueueDepth: 4, QueueWait: time.Hour},
			ctx:     cancelled,
			wantErr: context.Canceled,
		},
		{
			name:    "already-expired deadline",
			cfg:     Config{QueueDepth: 4, QueueWait: time.Hour},
			ctx:     expired,
			wantErr: context.DeadlineExceeded,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, releaseOccupier := occupied(t, tc.cfg)
			defer releaseOccupier()
			_, err := c.Do(rowCtx(t, tc.ctx, tc.timeout), "victim", "", "m")
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == ErrQueueFull || tc.wantErr == errDeadline {
				if !Overloaded(err) {
					t.Fatalf("Overloaded(%v) = false, want true", err)
				}
			} else if Overloaded(err) {
				t.Fatalf("Overloaded(%v) = true for a client-side error", err)
			}
			if tc.check != nil {
				if err := tc.check(c.Stats()); err != nil {
					t.Fatal(err)
				}
			}
			// The occupier must still complete cleanly after the shed.
			releaseOccupier()
			waitFor(t, func() bool { return c.Stats().InFlight == 0 })
		})
	}
}

// rowCtx is a table row's context: ctx as the table holds it, or, for a
// row with a timeout, one whose clock starts now, inside the subtest. A
// deadline set when the table was built could pass during set-up on a
// busy machine, and the request then failed the entry check instead of
// the queue wait.
func rowCtx(t *testing.T, ctx context.Context, timeout time.Duration) context.Context {
	if timeout == 0 {
		return ctx
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	t.Cleanup(cancel)
	return ctx
}

// TestQueueFullWithWaiter fills the one-deep queue with a real waiter
// and checks the next request is shed while the waiter eventually
// succeeds.
func TestQueueFullWithWaiter(t *testing.T) {
	c, releaseOccupier := occupied(t, Config{QueueDepth: 1, QueueWait: 5 * time.Second})
	defer releaseOccupier()

	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "patient", "", "m")
		waiterDone <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })

	if _, err := c.Do(context.Background(), "impatient", "", "m"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	releaseOccupier()
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued request should succeed once the slot frees: %v", err)
	}
	s := c.Stats()
	if s.ShedQueueFull != 1 || s.QueueDepth != 0 {
		t.Fatalf("stats after drain = %+v", s)
	}
}

// TestConcurrentMixedLoad hammers the core from many goroutines across
// a small key set; run with -race. Every request must succeed (the
// queue is deep and the wait generous) and every result must be
// consistent for its key.
func TestConcurrentMixedLoad(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{
		MaxInFlight: 4,
		QueueDepth:  1024,
		QueueWait:   10 * time.Second,
		CacheSize:   64,
	})
	const goroutines, opsEach, keys = 16, 50, 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				p := fmt.Sprintf("prompt-%d", (g+i)%keys)
				v, err := c.Do(context.Background(), p, "s", "m")
				if err != nil {
					errc <- fmt.Errorf("%s: %w", p, err)
					return
				}
				if want := "pc:" + p + "/s"; v != want {
					errc <- fmt.Errorf("%s: got %q, want %q", p, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Completed != goroutines*opsEach {
		t.Fatalf("completed = %d, want %d", s.Completed, goroutines*opsEach)
	}
	// With caching on each key is computed once: a request either hits,
	// joins the key's flight, or leads it and finds what the previous
	// leader stored (TestLeaderRereadsTheCache).
	if calls != keys {
		t.Fatalf("complement called %d times for %d keys", calls, keys)
	}
	// The duration histogram is the only record of completions, and its
	// outcomes reconcile with the counters kept elsewhere.
	hits, shared, computed := c.lat[outcomeHit].Count(), c.lat[outcomeShared].Count(), c.lat[outcomeComputed].Count()
	if hits != s.Cache.Hits || shared != s.DedupHits || computed != atomic.LoadInt64(&calls) {
		t.Fatalf("histogram says %d hit / %d shared / %d computed; cache hits %d, dedup hits %d, complement calls %d",
			hits, shared, computed, s.Cache.Hits, s.DedupHits, calls)
	}
}

// TestLeaderRereadsTheCache: a request that missed the cache just
// before the previous leader stored the key, and reached the flight just
// after that leader left it, leads the key — and is served what was
// stored, as shared, without a second computation or a second count in
// the cache's hit/miss books.
func TestLeaderRereadsTheCache(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{CacheSize: 64})
	k := Key("p", "s", "m")
	c.cache.Put(k, "stored")
	v, shared, err := c.compute(context.Background(), k, "p", "s", time.Now())
	if err != nil || v != "stored" || !shared {
		t.Fatalf("compute on a stored key = (%q, %v, %v), want (\"stored\", shared, nil)", v, shared, err)
	}
	if calls != 0 {
		t.Fatalf("complement called %d times for a stored key, want 0", calls)
	}
	if st := c.cache.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("the re-read counted: %+v", st)
	}
}

func TestStatsHandlerServesJSON(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{})
	if _, err := c.Do(context.Background(), "p", "", "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(context.Background(), "p", "", "m"); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.CacheHitRatio != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", s.CacheHitRatio)
	}

	rec := httptest.NewRecorder()
	c.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var decoded Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("stats body not JSON: %v", err)
	}
	if decoded.Requests != 2 || decoded.Completed != 2 || decoded.CacheHitRatio != 0.5 {
		t.Fatalf("decoded stats = %+v", decoded)
	}
	if decoded.QueueCapacity != 0 || decoded.Cache.Entries != 1 {
		t.Fatalf("decoded stats = %+v", decoded)
	}
}

// waiters returns the number of followers currently attached to key's
// in-flight call, or 0 when none is in flight. Test hook.
func (g *flightGroup) waiters(key string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return atomic.LoadInt64(&c.dups)
	}
	return 0
}

// Do is DoLevel without the verdict, the shape most of these tests drive:
// on success the complement, on overload a typed shedding error.
func (c *Core) Do(ctx context.Context, prompt, salt, model string) (string, error) {
	v, _, err := c.DoLevel(ctx, prompt, salt, model)
	return v, err
}
