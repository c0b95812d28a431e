package serving

import (
	"context"
	"errors"
	"testing"
	"time"
)

// breakerCore builds a single-slot, zero-queue core with an armed
// breaker on a pinned clock, plus a blocker that occupies the one
// computation slot on demand.
func breakerCore(t *testing.T, threshold int) (*Core, *time.Time, chan struct{}, chan struct{}) {
	t.Helper()
	now := time.Unix(5000, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func(prompt, salt string) string {
		if prompt == "block" {
			entered <- struct{}{}
			<-release
		}
		return "pc:" + prompt
	}
	c, err := New(fn, Config{
		CacheSize:        -1,
		MaxInFlight:      1,
		QueueDepth:       0,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Second,
		Now:              func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, &now, entered, release
}

func TestCoreBreakerOpensAfterConsecutiveSheds(t *testing.T) {
	c, _, entered, release := breakerCore(t, 2)
	ctx := context.Background()

	// Occupy the single slot so everything else sheds.
	blocked := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "block", "s", "m")
		blocked <- err
	}()
	<-entered

	for i := 0; i < 2; i++ {
		if _, err := c.Do(ctx, "x", "s", "m"); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("shed %d: err = %v, want ErrQueueFull", i, err)
		}
	}
	// Two consecutive sheds tripped the breaker: the next request fails
	// fast without touching the admission path at all.
	if _, err := c.Do(ctx, "y", "s", "m"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if !Overloaded(ErrBreakerOpen) {
		t.Fatal("ErrBreakerOpen must count as overload for the HTTP mapping")
	}

	st := c.Stats()
	if st.ShedQueueFull != 2 || st.ShedBreaker != 1 || st.Shed != 3 {
		t.Fatalf("shed stats = %+v", st)
	}
	if st.Breaker.State != "open" || st.Breaker.Opens != 1 {
		t.Fatalf("breaker stats = %+v, want open after 1 trip", st.Breaker)
	}

	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked leader failed: %v", err)
	}
}

func TestCoreBreakerHalfOpenProbeCloses(t *testing.T) {
	c, now, entered, release := breakerCore(t, 1)
	ctx := context.Background()

	blocked := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "block", "s", "m")
		blocked <- err
	}()
	<-entered
	if _, err := c.Do(ctx, "x", "s", "m"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want shed", err)
	}
	if got := c.Stats().Breaker.State; got != "open" {
		t.Fatalf("state = %q, want open", got)
	}
	// Free the slot, then let the cooldown elapse on the pinned clock:
	// the next request is the half-open probe; its success closes the
	// circuit again.
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	*now = now.Add(time.Second)
	v, err := c.Do(ctx, "probe", "s", "m")
	if err != nil || v != "pc:probe" {
		t.Fatalf("probe got (%q, %v)", v, err)
	}
	st := c.Stats()
	if st.Breaker.State != "closed" || st.Breaker.Probes != 1 {
		t.Fatalf("breaker stats = %+v, want closed after one probe", st.Breaker)
	}
	// Healthy again: ordinary traffic flows.
	if _, err := c.Do(ctx, "after", "s", "m"); err != nil {
		t.Fatal(err)
	}
}

// TestCoreBreakerDisabledByDefault: threshold 0 (the zero Config) means
// the breaker never trips. With the one slot held, every computation
// that reaches admission is shed — a failure the breaker records, with
// no success between them (the ladder answers the rest at the raw rung
// without touching the breaker) — and none is ever ErrBreakerOpen.
func TestCoreBreakerDisabledByDefault(t *testing.T) {
	c, _, entered, release := breakerCore(t, 0)
	ctx := context.Background()

	blocked := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "block", "s", "m")
		blocked <- err
	}()
	<-entered
	for i := 0; c.Stats().Breaker.Failures < 100; i++ {
		if _, err := c.Do(ctx, "x", "s", "m"); err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("request %d: err = %v, want a queue-full shed or a raw-rung answer", i, err)
		}
		if i > 10000 {
			t.Fatalf("only %d sheds reached the breaker in %d requests", c.Stats().Breaker.Failures, i)
		}
	}
	st := c.Stats()
	if st.ShedBreaker != 0 || st.Breaker.State != "closed" || st.Breaker.Opens != 0 || st.Breaker.Successes != 0 {
		t.Fatalf("shed_breaker %d, breaker %+v; want none and closed after 100 straight failures", st.ShedBreaker, st.Breaker)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("blocked leader failed: %v", err)
	}
}

func TestCoreClientCancelDoesNotTripBreaker(t *testing.T) {
	c, _, entered, release := breakerCore(t, 1)

	blocked := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "block", "s", "m")
		blocked <- err
	}()
	<-entered
	// A request whose client has already gone is not a health signal;
	// it must not open the breaker. (It is rejected before the flight
	// layer, so the breaker never even sees it.)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(cancelled, "x", "s", "m"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.Stats().Breaker.State; got != "closed" {
		t.Fatalf("state = %q after client cancel, want closed", got)
	}
	close(release)
	<-blocked
}
