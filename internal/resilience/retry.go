package resilience

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Policy is a retry schedule: capped exponential backoff with full
// jitter, bounded by attempt count, an optional elapsed-time budget, and
// the caller's context deadline. The zero value of any field selects its
// default, so Policy{} is a usable three-attempt schedule.
type Policy struct {
	// MaxAttempts bounds total tries (first call included). Default 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt n waits
	// up to BaseDelay·2ⁿ (full jitter picks uniformly in [0, cap]).
	// Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default 2s.
	MaxDelay time.Duration
	// Budget bounds the whole call — attempts plus sleeps. When the next
	// sleep would overrun it, Do returns the last error instead of
	// burning the remaining time. 0 means no budget (the context
	// deadline still applies).
	Budget time.Duration
	// Rand is the jitter source in [0,1); tests pin it. Default: the
	// shared math/rand source.
	Rand func() float64
	// Sleep waits d or until ctx ends; tests replace it to observe the
	// schedule without real sleeping. Default sleeps on a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now is the clock for budget accounting; tests pin it. Default
	// time.Now.
	Now func() time.Time
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Rand == nil {
		p.Rand = jitterRand
	}
	if p.Sleep == nil {
		p.Sleep = SleepContext
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// jitterMu serializes the shared default jitter source; Policies built
// by concurrent goroutines share it.
var (
	jitterMu sync.Mutex
	// The production default wants unpredictable jitter so a fleet of
	// clients retrying the same outage decorrelates; tests that need a
	// reproducible schedule pin Policy.Rand or reseed this source.
	jitterSrc = rand.New(rand.NewSource(time.Now().UnixNano())) //paslint:allow determinism production jitter must decorrelate across processes; tests pin Policy.Rand or reseed the source
)

func jitterRand() float64 {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterSrc.Float64()
}

// SleepContext waits d or until ctx ends, whichever is first.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DoValue runs fn under the policy: terminal errors (see Classify)
// return immediately, retryable and overload errors are retried with
// capped full-jitter backoff — or exactly the server's Retry-After hint
// when the error carries one — until attempts, the budget, or the
// context deadline run out. The returned error is always the most
// recent fn error (or ctx.Err() when a sleep was cancelled), never a
// synthetic wrapper, so callers can inspect it normally.
func DoValue[T any](ctx context.Context, p Policy, fn func(ctx context.Context) (T, error)) (T, error) {
	p = p.withDefaults()
	start := p.Now()
	var zero T
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return zero, lastErr
			}
			return zero, err
		}
		v, err := fn(ctx)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if Classify(err) == Terminal {
			return zero, err
		}
		if attempt == p.MaxAttempts-1 {
			break
		}
		delay := p.backoff(attempt, err)
		if !p.affordable(ctx, start, delay) {
			return zero, lastErr
		}
		obs.AddEvent(ctx, "retry.attempt",
			"attempt", strconv.Itoa(attempt+1),
			"delay_ms", strconv.FormatInt(delay.Milliseconds(), 10),
			"cause", err.Error())
		if serr := p.Sleep(ctx, delay); serr != nil {
			return zero, lastErr
		}
	}
	return zero, lastErr
}

// Delay returns the backoff before retry number attempt+1 under the
// policy's capped full-jitter envelope, for callers that run their own
// loop (the ring health prober spaces probes of a down replica with it)
// instead of going through DoValue. The shared jitter source applies.
func (p Policy) Delay(attempt int) time.Duration {
	return p.withDefaults().backoff(attempt, nil)
}

// backoff picks the sleep before retry number attempt+1: the server's
// Retry-After hint verbatim when err carries one (the server knows its
// own recovery horizon better than our jitter does), otherwise full
// jitter over the capped exponential envelope.
func (p Policy) backoff(attempt int, err error) time.Duration {
	if hint, ok := retryAfterHint(err); ok && hint > 0 {
		return hint
	}
	cap := p.BaseDelay << uint(attempt)
	if cap > p.MaxDelay || cap <= 0 { // <=0: shift overflow
		cap = p.MaxDelay
	}
	return time.Duration(p.Rand() * float64(cap))
}

// affordable reports whether sleeping delay still leaves room to do
// anything useful: both the elapsed budget and the context deadline must
// survive the sleep. Retrying with no time left only converts a
// descriptive upstream error into context.DeadlineExceeded.
func (p Policy) affordable(ctx context.Context, start time.Time, delay time.Duration) bool {
	now := p.Now()
	if p.Budget > 0 && now.Add(delay).Sub(start) > p.Budget {
		return false
	}
	if dl, ok := ctx.Deadline(); ok && now.Add(delay).After(dl) {
		return false
	}
	return true
}
