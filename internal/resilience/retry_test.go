package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// testPolicy returns a policy whose sleeps are recorded instead of
// slept and whose jitter is pinned to 1.0, so the schedule is exact.
func testPolicy(attempts int, base time.Duration) (Policy, *[]time.Duration) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: attempts,
		BaseDelay:   base,
		Rand:        func() float64 { return 1.0 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		},
	}
	return p, &slept
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	p, slept := testPolicy(5, 10*time.Millisecond)
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("want success, got %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Exponential envelope with jitter pinned to the top: base, 2·base.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", *slept, want)
	}
}

// TestSeedJitterMakesDefaultRandDeterministic: two identically-seeded
// runs of a Policy using the shared default jitter source must produce
// the same backoff schedule. This is the hook code paths that build
// Policies internally rely on for reproducible tests.
func TestSeedJitterMakesDefaultRandDeterministic(t *testing.T) {
	schedule := func() []time.Duration {
		var slept []time.Duration
		p := Policy{
			MaxAttempts: 4,
			BaseDelay:   10 * time.Millisecond,
			// Rand deliberately nil: exercise the shared jitterSrc.
			Sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return ctx.Err()
			},
		}
		_ = p.Do(context.Background(), func(ctx context.Context) error {
			return errors.New("transient")
		})
		return slept
	}

	SeedJitter(42)
	first := schedule()
	SeedJitter(42)
	second := schedule()
	// Re-seed with a fresh source afterwards so this test does not leave
	// a predictable schedule behind for other packages in the process.
	defer SeedJitter(time.Now().UnixNano())

	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("schedules = %v / %v, want 3 sleeps each", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("sleep %d differs: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestDoStopsOnTerminal(t *testing.T) {
	p, slept := testPolicy(5, time.Millisecond)
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		return AsTerminal(errors.New("bad request"))
	})
	if err == nil || calls != 1 || len(*slept) != 0 {
		t.Fatalf("terminal error retried: calls=%d sleeps=%v err=%v", calls, *slept, err)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	p, _ := testPolicy(3, time.Millisecond)
	calls := 0
	boom := errors.New("boom")
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want last fn error, got %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoHonorsRetryAfterHint(t *testing.T) {
	p, slept := testPolicy(3, time.Millisecond)
	calls := 0
	err := p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		if calls == 1 {
			return WithRetryAfter(errors.New("429"), 700*time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != 700*time.Millisecond {
		t.Fatalf("sleeps = %v, want exactly the 700ms hint", *slept)
	}
}

func TestDoCapsBackoffAtMaxDelay(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts: 6,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    250 * time.Millisecond,
		Rand:        func() float64 { return 1.0 },
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	boom := errors.New("x")
	_ = p.Do(context.Background(), func(ctx context.Context) error { return boom })
	for i, d := range slept {
		if d > 250*time.Millisecond {
			t.Fatalf("sleep %d = %v exceeds MaxDelay", i, d)
		}
	}
	if last := slept[len(slept)-1]; last != 250*time.Millisecond {
		t.Fatalf("last sleep = %v, want pinned at MaxDelay", last)
	}
}

func TestDoJitterStaysInEnvelope(t *testing.T) {
	// A real random source: every sleep must fall in [0, cap].
	p := Policy{MaxAttempts: 8, BaseDelay: 8 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	var slept []time.Duration
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	_ = p.Do(context.Background(), func(ctx context.Context) error { return errors.New("x") })
	for i, d := range slept {
		cap := 8 * time.Millisecond << uint(i)
		if cap > 40*time.Millisecond {
			cap = 40 * time.Millisecond
		}
		if d < 0 || d > cap {
			t.Fatalf("sleep %d = %v outside [0, %v]", i, d, cap)
		}
	}
}

func TestDoRespectsContextDeadline(t *testing.T) {
	// Deadline 50ms away; backoff wants 100ms sleeps — the loop must
	// stop after the first attempt instead of sleeping past the
	// deadline, and it must return the fn error, not DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	p, slept := testPolicy(10, 100*time.Millisecond)
	calls := 0
	boom := errors.New("upstream down")
	err := p.Do(ctx, func(ctx context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want descriptive fn error, got %v", err)
	}
	if calls != 1 || len(*slept) != 0 {
		t.Fatalf("retried past the deadline: calls=%d sleeps=%v", calls, *slept)
	}
}

func TestDoRespectsBudget(t *testing.T) {
	now := time.Unix(0, 0)
	p := Policy{
		MaxAttempts: 10,
		BaseDelay:   300 * time.Millisecond,
		Budget:      time.Second,
		Rand:        func() float64 { return 1.0 },
		Now:         func() time.Time { return now },
		Sleep: func(ctx context.Context, d time.Duration) error {
			now = now.Add(d) // advance the pinned clock instead of sleeping
			return nil
		},
	}
	calls := 0
	_ = p.Do(context.Background(), func(ctx context.Context) error {
		calls++
		return errors.New("x")
	})
	// Sleeps 300ms, 600ms consume 900ms; the next (1200ms) would blow
	// the 1s budget, so the loop stops at 3 attempts.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3 within the 1s budget", calls)
	}
}

func TestDoValueReturnsValue(t *testing.T) {
	p, _ := testPolicy(3, time.Millisecond)
	calls := 0
	v, err := DoValue(context.Background(), p, func(ctx context.Context) (string, error) {
		calls++
		if calls == 1 {
			return "", errors.New("flaky")
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("got (%q, %v), want (ok, nil)", v, err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err          error
		wantTerminal bool
	}{
		{errors.New("x"), false},
		{AsTerminal(errors.New("x")), true},
		{errors.New("status 503"), false}, // a far-side shed, as the callers pass it
		{fmt.Errorf("wrapped: %w", AsTerminal(errors.New("x"))), true},
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
		{ErrOpen, false},
		{fmt.Errorf("call: %w", ErrOpen), false},
		{WithRetryAfter(errors.New("x"), time.Second), false},
	}
	for i, c := range cases {
		if got := IsTerminal(c.err); got != c.wantTerminal {
			t.Errorf("case %d: IsTerminal(%v) = %v, want %v", i, c.err, got, c.wantTerminal)
		}
	}
	if _, ok := retryAfterHint(errors.New("plain")); ok {
		t.Error("plain error should carry no Retry-After hint")
	}
	if d, ok := retryAfterHint(fmt.Errorf("w: %w", WithRetryAfter(errors.New("x"), 3*time.Second))); !ok || d != 3*time.Second {
		t.Errorf("hint = (%v, %v), want (3s, true)", d, ok)
	}
}

// SeedJitter replaces the shared jitter source with one seeded
// deterministically, making every Policy that uses the default Rand
// reproducible.
func SeedJitter(seed int64) {
	jitterMu.Lock()
	defer jitterMu.Unlock()
	jitterSrc = rand.New(rand.NewSource(seed))
}

// Do is DoValue for a function with no value, the shape most of these
// tests drive.
func (p Policy) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	_, err := DoValue(ctx, p, func(ctx context.Context) (struct{}, error) {
		return struct{}{}, fn(ctx)
	})
	return err
}
