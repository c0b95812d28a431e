package resilience

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// clockedBreaker returns a breaker on a pinned, manually advanced clock.
func clockedBreaker(threshold int, cooldown time.Duration) (*Breaker, *time.Time) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{
		Threshold: threshold,
		Cooldown:  cooldown,
		Now:       func() time.Time { return now },
	})
	return b, &now
}

func mustAllow(t *testing.T, b *Breaker) func(bool) {
	t.Helper()
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("Allow rejected in state %v: %v", b.State(), err)
	}
	return done
}

func TestBreakerOpensAfterThresholdFailures(t *testing.T) {
	b, _ := clockedBreaker(3, time.Second)
	for i := 0; i < 3; i++ {
		if b.State() != Closed {
			t.Fatalf("failure %d: state %v, want closed", i, b.State())
		}
		mustAllow(t, b)(false)
	}
	if b.State() != Open {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
			t.Fatalf("open breaker admitted request %d: %v", i, err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state %v after rejecting, want open", b.State())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := clockedBreaker(3, time.Second)
	mustAllow(t, b)(false)
	mustAllow(t, b)(false)
	mustAllow(t, b)(true) // streak broken
	mustAllow(t, b)(false)
	mustAllow(t, b)(false)
	if b.State() != Closed {
		t.Fatalf("state %v, want closed — success must reset the streak", b.State())
	}
	mustAllow(t, b)(false)
	if b.State() != Open {
		t.Fatal("third consecutive failure should open")
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	b, now := clockedBreaker(1, time.Second)
	mustAllow(t, b)(false) // trip
	if b.State() != Open {
		t.Fatal("want open")
	}
	*now = now.Add(time.Second) // cooldown elapses
	if b.State() != HalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}
	probe := mustAllow(t, b) // the single probe
	// While the probe is in flight, everyone else is rejected — the
	// dead backend sees at most one request per half-open window.
	for i := 0; i < 5; i++ {
		if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
			t.Fatalf("half-open admitted a second probe (i=%d)", i)
		}
	}
	probe(true)
	if b.State() != Closed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	// Closed again, it admits concurrent requests, not one at a time.
	first, second := mustAllow(t, b), mustAllow(t, b)
	first(true)
	second(true)
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, now := clockedBreaker(1, time.Second)
	mustAllow(t, b)(false)
	*now = now.Add(time.Second)
	mustAllow(t, b)(false) // probe fails
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	// The cooldown restarts from the failed probe.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("reopened breaker should reject")
	}
	*now = now.Add(time.Second)
	done := mustAllow(t, b)
	done(true)
	if b.State() != Closed {
		t.Fatal("second probe success should close")
	}
}

func TestBreakerDoneIsIdempotent(t *testing.T) {
	b, now := clockedBreaker(1, time.Second)
	mustAllow(t, b)(false)
	*now = now.Add(time.Second)
	probe := mustAllow(t, b)
	probe(true)
	probe(true) // double-report must not corrupt probe accounting
	probe(false)
	if b.State() != Closed {
		t.Fatalf("state %v, want closed after single recorded success", b.State())
	}
	// A failure reported twice is one failure: two under a threshold of
	// two would open the circuit.
	b, _ = clockedBreaker(2, time.Second)
	fail := mustAllow(t, b)
	fail(false)
	fail(false)
	if b.State() != Closed {
		t.Fatalf("state %v, want closed: a double done(false) counted twice", b.State())
	}
	mustAllow(t, b)(false)
	if b.State() != Open {
		t.Fatalf("state %v, want open after the second failure", b.State())
	}
}

func TestBreakerDoClassifiesTerminalAsHealthy(t *testing.T) {
	b, _ := clockedBreaker(2, time.Second)
	// Terminal errors (caller bugs, 4xx) say nothing about backend
	// health and must not open the circuit.
	for i := 0; i < 10; i++ {
		if err := b.Do(func() error { return AsTerminal(errors.New("bad request")) }); err == nil {
			t.Fatal("Do should propagate the fn error")
		}
	}
	if b.State() != Closed {
		t.Fatalf("state %v, want closed — 4xx must not trip the breaker", b.State())
	}
	for i := 0; i < 2; i++ {
		_ = b.Do(func() error { return errors.New("backend down") })
	}
	if b.State() != Open {
		t.Fatal("retryable failures should trip the breaker")
	}
	if err := b.Do(func() error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker Do = %v, want ErrOpen", err)
	}
}

// TestBreakerConcurrentOutcomes: 63 concurrent failures under a
// threshold of 64 leave the circuit closed and the 64th opens it, so
// no outcome was lost or counted twice.
func TestBreakerConcurrentOutcomes(t *testing.T) {
	const threshold = 64
	b := NewBreaker(BreakerConfig{Threshold: threshold, Cooldown: time.Hour})
	var wg sync.WaitGroup
	for i := 0; i < threshold-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done, err := b.Allow()
			if err != nil {
				t.Error(err)
				return
			}
			done(false)
		}()
	}
	wg.Wait()
	if b.State() != Closed {
		t.Fatalf("state %v after %d concurrent failures, want closed", b.State(), threshold-1)
	}
	mustAllow(t, b)(false)
	if b.State() != Open {
		t.Fatalf("state %v after %d failures, want open", b.State(), threshold)
	}
}

// Do runs fn through the breaker, recording its outcome. Terminal
// errors (the caller's fault, not the backend's — 4xx, cancelled
// contexts) count as successes for health purposes.
func (b *Breaker) Do(fn func() error) error {
	done, err := b.Allow()
	if err != nil {
		return err
	}
	ferr := fn()
	done(IsTerminal(ferr))
	return ferr
}
