package serving

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// testScheduler builds a scheduler over a fixed limit with the given
// tenancy knobs.
func testScheduler(limit int, cfg Config) *scheduler {
	if cfg.DefaultTenantWeight == 0 {
		cfg.DefaultTenantWeight = 1
	}
	if cfg.MaxTenants == 0 {
		cfg.MaxTenants = 64
	}
	cfg.MaxInFlight = limit
	return newScheduler(&cfg)
}

// mustAcquire acquires a slot on the fast path or fails the test.
func mustAcquire(t *testing.T, s *scheduler, tenant string) func() {
	t.Helper()
	release, err := s.acquire(context.Background(), s.arrive(tenant), 0)
	if err != nil {
		t.Fatalf("acquire(%s): %v", tenant, err)
	}
	return release
}

func waitForWaiting(t *testing.T, s *scheduler, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, waiting := s.depth(); waiting == want {
			return
		}
		if time.Now().After(deadline) {
			_, waiting := s.depth()
			t.Fatalf("waiting = %d, want %d (timed out)", waiting, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerDRRWeightedOrder pins the deficit-round-robin grant
// sequence: with weight a:2 vs b:1 and one slot, backlogged tenants
// drain as a,a,b,a,a,b — a gets twice the service, b is never starved.
func TestSchedulerDRRWeightedOrder(t *testing.T) {
	s := testScheduler(1, Config{
		QueueDepth:    16,
		TenantWeights: map[string]int{"a": 2},
	})
	holder := mustAcquire(t, s, "a") // pin the single slot

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				release, err := s.acquire(context.Background(), s.arrive(tenant), 5*time.Second)
				if err != nil {
					t.Errorf("acquire(%s): %v", tenant, err)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				release() // chain to the next grant
			}()
		}
		// Waiters must all be queued before the next tenant's batch so
		// the DRR ring sees both backlogs at dispatch time.
	}
	enqueue("a", 4)
	waitForWaiting(t, s, 4)
	enqueue("b", 2)
	waitForWaiting(t, s, 6)

	holder() // start the drain; each grant releases into the next
	wg.Wait()

	want := []string{"a", "a", "b", "a", "a", "b"}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("granted %d waiters, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

// TestSchedulerQuotaCapsTenant: a tenant at its quota queues behind
// itself while other tenants keep being admitted, and the quota frees
// with the slot.
func TestSchedulerQuotaCapsTenant(t *testing.T) {
	s := testScheduler(4, Config{
		QueueDepth:   8,
		TenantQuotas: map[string]int{"q": 1},
	})
	q1 := mustAcquire(t, s, "q")

	// The second q request cannot run concurrently: it queues.
	qDone := make(chan error, 1)
	go func() {
		release, err := s.acquire(context.Background(), s.arrive("q"), 5*time.Second)
		if err == nil {
			release()
		}
		qDone <- err
	}()
	waitForWaiting(t, s, 1)

	// Another tenant is not blocked by q's quota even while q waits.
	zDone := make(chan error, 1)
	go func() {
		release, err := s.acquire(context.Background(), s.arrive("z"), 5*time.Second)
		if err == nil {
			release()
		}
		zDone <- err
	}()
	if err := <-zDone; err != nil {
		t.Fatalf("tenant z blocked behind q's quota: %v", err)
	}
	select {
	case err := <-qDone:
		t.Fatalf("q's second request finished while its quota was held (err=%v)", err)
	default:
	}

	q1() // quota frees with the slot; the waiter is granted
	if err := <-qDone; err != nil {
		t.Fatalf("queued q request after quota freed: %v", err)
	}
	stats := s.tenantStats()
	for _, ts := range stats {
		if ts.Tenant == "q" && ts.Admitted != 2 {
			t.Fatalf("q admitted = %d, want 2: %+v", ts.Admitted, stats)
		}
	}
}

// TestSchedulerTenantFairShareOfQueue: without an explicit
// TenantQueueDepth, a flooding tenant is capped at its weighted share
// of the waiting room and the other tenant's slot in the room survives.
func TestSchedulerTenantFairShareOfQueue(t *testing.T) {
	s := testScheduler(1, Config{QueueDepth: 4})
	holder := mustAcquire(t, s, "h")
	defer holder()

	// Flood from tenant a: with h and a active, a's share of the
	// 4-deep room is 4/2 = 2; the third enqueue sheds.
	done := make(chan struct{})
	defer close(done)
	for i := 0; i < 2; i++ {
		go func() {
			release, err := s.acquire(context.Background(), s.arrive("a"), time.Minute)
			if err == nil {
				release()
			}
			<-done
		}()
	}
	waitForWaiting(t, s, 2)
	if _, err := s.acquire(context.Background(), s.arrive("a"), time.Minute); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("a's 3rd waiter: err = %v, want ErrQueueFull (share exhausted)", err)
	}

	// Tenant b still gets a place in the room despite a's flood.
	bDone := make(chan error, 1)
	go func() {
		release, err := s.acquire(context.Background(), s.arrive("b"), time.Minute)
		if err == nil {
			release()
		}
		bDone <- err
	}()
	waitForWaiting(t, s, 3)
	select {
	case err := <-bDone:
		t.Fatalf("b's waiter resolved early: %v", err)
	default: // b is queued, not shed — isolation held
	}

	stats := s.tenantStats()
	var a TenantStats
	for _, ts := range stats {
		if ts.Tenant == "a" {
			a = ts
		}
	}
	if a.ShedQueueFull != 1 {
		t.Fatalf("a shed_queue_full = %d, want 1: %+v", a.ShedQueueFull, stats)
	}
}

// TestSchedulerExplicitTenantQueueDepth: the configured per-tenant cap
// overrides the weighted share.
func TestSchedulerExplicitTenantQueueDepth(t *testing.T) {
	s := testScheduler(1, Config{QueueDepth: 8, TenantQueueDepth: 1})
	holder := mustAcquire(t, s, "a")
	defer holder()

	done := make(chan struct{})
	defer close(done)
	go func() {
		release, err := s.acquire(context.Background(), s.arrive("a"), time.Minute)
		if err == nil {
			release()
		}
		<-done
	}()
	waitForWaiting(t, s, 1)
	if _, err := s.acquire(context.Background(), s.arrive("a"), time.Minute); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull at TenantQueueDepth 1", err)
	}
}

// TestSchedulerOverflowTenant: ids beyond MaxTenants share the
// overflow queue instead of growing the table.
func TestSchedulerOverflowTenant(t *testing.T) {
	s := testScheduler(4, Config{MaxTenants: 2})
	s.arrive("t1")
	s.arrive("t2")
	s.arrive("t3")
	s.arrive("t4")

	stats := s.tenantStats()
	if len(stats) != 3 {
		t.Fatalf("tenant table = %+v, want t1, t2 and overflow", stats)
	}
	byID := map[string]TenantStats{}
	for _, ts := range stats {
		byID[ts.Tenant] = ts
	}
	if byID[OverflowTenant].Requests != 2 {
		t.Fatalf("overflow requests = %d, want 2 (t3 + t4): %+v", byID[OverflowTenant].Requests, stats)
	}
}

// TestCoreTenantAccounting drives the core with tenant-tagged contexts
// and checks the per-tenant rows in Stats.
func TestCoreTenantAccounting(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{CacheSize: -1})
	for i, tenant := range []string{"alpha", "alpha", "beta", ""} {
		ctx := WithTenant(context.Background(), tenant)
		if _, err := c.Do(ctx, "p", "s", "m"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	byID := map[string]TenantStats{}
	for _, ts := range c.Stats().Tenants {
		byID[ts.Tenant] = ts
	}
	if byID["alpha"].Admitted != 2 || byID["beta"].Admitted != 1 || byID[DefaultTenant].Admitted != 1 {
		t.Fatalf("tenant stats = %+v", c.Stats().Tenants)
	}
}

// TestTenantCtxRoundTrip pins WithTenant/TenantFrom semantics,
// including the empty-id defaults.
func TestTenantCtxRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TenantFrom(ctx); got != DefaultTenant {
		t.Fatalf("TenantFrom(bare ctx) = %q, want %q", got, DefaultTenant)
	}
	if got := TenantFrom(WithTenant(ctx, "acme")); got != "acme" {
		t.Fatalf("TenantFrom = %q, want acme", got)
	}
	if got := TenantFrom(WithTenant(ctx, "")); got != DefaultTenant {
		t.Fatalf("TenantFrom(empty id) = %q, want %q", got, DefaultTenant)
	}
}
