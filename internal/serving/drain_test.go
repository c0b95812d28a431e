package serving

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestDrainRefusesNewWorkServesHits: a draining core sheds cache
// misses with ErrDraining (counted, Overloaded) while repeat traffic
// keeps being answered from the cache.
func TestDrainRefusesNewWorkServesHits(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{CacheSize: 64})
	ctx := context.Background()

	warm, err := c.Do(ctx, "p1", "", "m")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Drain() {
		t.Fatal("first Drain() = false")
	}
	if c.Drain() {
		t.Fatal("second Drain() = true, want idempotent false")
	}
	if !c.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	// A cached key still answers: repeat traffic routed here before the
	// router noticed the drain is not punished.
	if got, err := c.Do(ctx, "p1", "", "m"); err != nil || got != warm {
		t.Fatalf("cache hit during drain = %q, %v; want %q, nil", got, err, warm)
	}
	// A new key is refused, typed and counted.
	if _, err := c.Do(ctx, "p2", "", "m"); !errors.Is(err, ErrDraining) {
		t.Fatalf("new computation during drain: err = %v, want ErrDraining", err)
	}
	if !Overloaded(ErrDraining) {
		t.Fatal("Overloaded(ErrDraining) = false, want true (503 + Retry-After mapping)")
	}
	s := c.Stats()
	if !s.Draining || s.ShedDraining != 1 || s.Shed != 1 {
		t.Fatalf("stats = draining %v shed_draining %d shed %d, want true/1/1",
			s.Draining, s.ShedDraining, s.Shed)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Fatalf("compute calls = %d, want 1 (drain must not compute)", got)
	}
}

// TestDrainLetsInFlightFinishAndQuiesce: a computation admitted before
// the drain completes and Quiesce returns once it has; a deadline that
// passes first surfaces as the context's error.
func TestDrainLetsInFlightFinishAndQuiesce(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(prompt, salt string) string {
		close(started)
		<-release
		return "pc:" + prompt
	}
	c := mustNew(t, fn, Config{CacheSize: -1, MaxInFlight: 1})
	ctx := context.Background()

	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "slow", "", "m")
		done <- err
	}()
	<-started
	c.Drain()

	// With work in flight, a short Quiesce deadline expires.
	shortCtx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if err := c.Quiesce(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Quiesce with work in flight = %v, want deadline exceeded", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight computation failed during drain: %v", err)
	}
	quiesceCtx, cancel2 := context.WithTimeout(ctx, 2*time.Second)
	defer cancel2()
	if err := c.Quiesce(quiesceCtx); err != nil {
		t.Fatalf("Quiesce after the queue emptied: %v", err)
	}
}
