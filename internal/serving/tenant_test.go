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

// TestSchedulerDRRWeightedOrder pins the grant sequence, round robin at
// the one weight there is: with a:4 and b:2 backlogged behind one slot,
// the tenants take turns, one grant each, and a drains the rest alone
// once b is empty — a,b,a,b,a,a.
func TestSchedulerDRRWeightedOrder(t *testing.T) {
	s := testScheduler(1, Config{QueueDepth: 16})
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
		// the ring sees both backlogs at dispatch time.
	}
	enqueue("a", 4)
	waitForWaiting(t, s, 4)
	enqueue("b", 2)
	waitForWaiting(t, s, 6)

	holder() // start the drain; each grant releases into the next
	wg.Wait()

	want := []string{"a", "b", "a", "b", "a", "a"}
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

// TestSchedulerTenantFairShareOfQueue: a flooding tenant is capped at
// its equal share of the waiting room and the other tenant's place in
// the room survives.
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
	if byID[overflowTenant].Requests != 2 {
		t.Fatalf("overflow requests = %d, want 2 (t3 + t4): %+v", byID[overflowTenant].Requests, stats)
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
