package resilience

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestHedgeFastPrimaryRunsOnce(t *testing.T) {
	h := &Hedger{MinDelay: 50 * time.Millisecond, MaxDelay: time.Second}
	var calls int64
	v, err := Hedge(context.Background(), h, func(ctx context.Context) (string, error) {
		atomic.AddInt64(&calls, 1)
		return "fast", nil
	})
	if err != nil || v != "fast" {
		t.Fatalf("got (%q, %v)", v, err)
	}
	if n := atomic.LoadInt64(&calls); n != 1 || h.Launches() != 0 {
		t.Fatalf("fast primary hedged anyway: %d calls, %d launches", n, h.Launches())
	}
}

func TestHedgeRacesSecondAttemptPastBudget(t *testing.T) {
	h := &Hedger{MinDelay: 10 * time.Millisecond, MaxDelay: time.Second}
	var calls int64
	release := make(chan struct{})
	defer close(release)
	v, err := Hedge(context.Background(), h, func(ctx context.Context) (string, error) {
		if atomic.AddInt64(&calls, 1) == 1 {
			// Primary: stuck until the test ends (or cancelled by the
			// hedge winning).
			select {
			case <-release:
			case <-ctx.Done():
			}
			return "slow", ctx.Err()
		}
		return "hedge", nil
	})
	if err != nil || v != "hedge" {
		t.Fatalf("got (%q, %v), want the hedge to win", v, err)
	}
	if n := atomic.LoadInt64(&calls); n != 2 || h.Launches() != 1 {
		t.Fatalf("calls = %d, launches = %d, want 2 and 1", n, h.Launches())
	}
}

func TestHedgeBothFailReturnsPrimaryError(t *testing.T) {
	h := &Hedger{MinDelay: time.Millisecond, MaxDelay: time.Second}
	primary := errors.New("primary down")
	var calls int64
	_, err := Hedge(context.Background(), h, func(ctx context.Context) (string, error) {
		if atomic.AddInt64(&calls, 1) == 1 {
			time.Sleep(20 * time.Millisecond) // let the hedge launch and fail first
			return "", primary
		}
		return "", errors.New("hedge down")
	})
	if !errors.Is(err, primary) {
		t.Fatalf("err = %v, want the primary's error", err)
	}
}

func TestHedgeNilHedgerPassesThrough(t *testing.T) {
	v, err := Hedge(context.Background(), nil, func(ctx context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("got (%d, %v)", v, err)
	}
}

func TestHedgerDelayTracksPercentile(t *testing.T) {
	h := &Hedger{MinDelay: time.Millisecond, MaxDelay: time.Minute}
	// 100 observations: 1..100ms. p95 ≈ 96ms.
	for i := 1; i <= 100; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	d := h.delay()
	if d < 93*time.Millisecond || d > 97*time.Millisecond {
		t.Fatalf("p95 delay = %v, want ≈96ms", d)
	}
}

func TestHedgerDelayClamps(t *testing.T) {
	h := &Hedger{MinDelay: 20 * time.Millisecond, MaxDelay: 30 * time.Millisecond}
	if d := h.delay(); d != 20*time.Millisecond {
		t.Fatalf("cold-start delay = %v, want MinDelay", d)
	}
	for i := 0; i < 50; i++ {
		h.observe(time.Second)
	}
	if d := h.delay(); d != 30*time.Millisecond {
		t.Fatalf("delay = %v, want clamped to MaxDelay", d)
	}
	h2 := &Hedger{MinDelay: 20 * time.Millisecond, MaxDelay: time.Second}
	for i := 0; i < 50; i++ {
		h2.observe(time.Microsecond)
	}
	if d := h2.delay(); d != 20*time.Millisecond {
		t.Fatalf("delay = %v, want floored at MinDelay", d)
	}
}
