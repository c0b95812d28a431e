package resilience

import (
	"sync"
	"testing"
	"time"
)

// limitClock is a hand-advanced clock for deterministic limit tests.
type limitClock struct {
	mu sync.Mutex
	t  time.Time
}

func newLimitClock() *limitClock {
	return &limitClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *limitClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *limitClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLimit(t *testing.T, cfg LimitConfig) *Limit {
	t.Helper()
	l, err := NewLimit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLimitConfigValidation(t *testing.T) {
	cases := []LimitConfig{
		{},                                   // missing ceiling
		{Ceiling: -1},                        // negative ceiling
		{Ceiling: 4, Floor: 8},               // floor above ceiling
		{Ceiling: 4, Initial: 9},             // initial above ceiling
		{Ceiling: 8, Floor: 4, Initial: 2},   // initial below floor
		{Ceiling: 4, Backoff: 1.0},           // backoff must shrink
		{Ceiling: 4, Backoff: -0.5},          // negative backoff
		{Ceiling: 4, Target: -time.Second},   // negative target
		{Ceiling: 4, Cooldown: -time.Second}, // negative cooldown
	}
	for _, cfg := range cases {
		if _, err := NewLimit(cfg); err == nil {
			t.Errorf("NewLimit(%+v) accepted an invalid config", cfg)
		}
	}
}

func TestLimitDefaultsStartAtCeiling(t *testing.T) {
	l := newTestLimit(t, LimitConfig{Ceiling: 32})
	if got := l.Current(); got != 32 {
		t.Fatalf("initial limit = %d, want Ceiling 32", got)
	}
	s := l.Stats()
	if s.Floor != 1 || s.Ceiling != 32 || s.Current != 32 {
		t.Fatalf("stats = %+v, want floor 1 / ceiling 32 / current 32", s)
	}
}

// TestLimitAdditiveIncrease pins the growth pacing: the limit needs
// Current() consecutive sub-target successes per +1, so climbing from
// 2 to 5 costs 2, then 3, then 4 successes.
func TestLimitAdditiveIncrease(t *testing.T) {
	clock := newLimitClock()
	l := newTestLimit(t, LimitConfig{
		Floor: 1, Ceiling: 5, Initial: 2,
		Target: 50 * time.Millisecond, Now: clock.Now,
	})
	fast := 10 * time.Millisecond
	for want := 3; want <= 5; want++ {
		for i := 0; i < want-1; i++ {
			l.OnSuccess(fast)
		}
		if got := l.Current(); got != want {
			t.Fatalf("after %d successes at limit %d: limit = %d, want %d", want-1, want-1, got, want)
		}
	}
	// At the ceiling further successes are a no-op.
	for i := 0; i < 50; i++ {
		l.OnSuccess(fast)
	}
	if got := l.Current(); got != 5 {
		t.Fatalf("limit climbed past ceiling: %d", got)
	}
	if s := l.Stats(); s.Raises != 3 {
		t.Fatalf("raises = %d, want 3", s.Raises)
	}
}

// TestLimitSlowSuccessHoldsLine: an over-target latency is not an
// overload, but it resets the success run, so the limit neither grows
// nor shrinks.
func TestLimitSlowSuccessHoldsLine(t *testing.T) {
	clock := newLimitClock()
	l := newTestLimit(t, LimitConfig{
		Floor: 1, Ceiling: 8, Initial: 2,
		Target: 50 * time.Millisecond, Now: clock.Now,
	})
	// One fast success, then a slow one, repeatedly: the run never
	// reaches Current()=2, so the limit is pinned.
	for i := 0; i < 20; i++ {
		l.OnSuccess(10 * time.Millisecond)
		l.OnSuccess(80 * time.Millisecond)
	}
	if got := l.Current(); got != 2 {
		t.Fatalf("limit = %d after alternating fast/slow, want 2", got)
	}
}

// TestLimitMultiplicativeDecrease pins the cut sequence 32 → 16 → 8 →
// 4 → 2 (floor) under repeated overloads spaced past the cooldown.
func TestLimitMultiplicativeDecrease(t *testing.T) {
	clock := newLimitClock()
	l := newTestLimit(t, LimitConfig{
		Floor: 2, Ceiling: 32,
		Backoff: 0.5, Cooldown: time.Second, Now: clock.Now,
	})
	for _, want := range []int{16, 8, 4, 2, 2} {
		l.OnOverload()
		if got := l.Current(); got != want {
			t.Fatalf("after cut: limit = %d, want %d", got, want)
		}
		clock.Advance(time.Second)
	}
	if s := l.Stats(); s.Cuts != 4 { // the floor-clamped repeat is not a cut
		t.Fatalf("cuts = %d, want 4", s.Cuts)
	}
}

// TestLimitCooldownCoalescesBurst: a burst of overload signals inside
// one cooldown window is a single congestion event — one cut.
func TestLimitCooldownCoalescesBurst(t *testing.T) {
	clock := newLimitClock()
	l := newTestLimit(t, LimitConfig{
		Floor: 1, Ceiling: 32,
		Backoff: 0.5, Cooldown: time.Second, Now: clock.Now,
	})
	for i := 0; i < 100; i++ {
		l.OnOverload()
		clock.Advance(time.Millisecond) // 100 signals inside one window
	}
	if got := l.Current(); got != 16 {
		t.Fatalf("limit = %d after one burst, want a single cut to 16", got)
	}
	clock.Advance(time.Second)
	l.OnOverload()
	if got := l.Current(); got != 8 {
		t.Fatalf("limit = %d after cooldown elapsed, want 8", got)
	}
}

// TestLimitOverloadResetsSuccessRun: successes accumulated before a cut
// must not count toward growth after it.
func TestLimitOverloadResetsSuccessRun(t *testing.T) {
	clock := newLimitClock()
	l := newTestLimit(t, LimitConfig{
		Floor: 1, Ceiling: 16, Initial: 4,
		Target: 50 * time.Millisecond, Backoff: 0.5, Cooldown: time.Second, Now: clock.Now,
	})
	l.OnSuccess(time.Millisecond)
	l.OnSuccess(time.Millisecond)
	l.OnSuccess(time.Millisecond) // run = 3 of the 4 needed
	l.OnOverload()                // cut to 2, run resets
	if got := l.Current(); got != 2 {
		t.Fatalf("limit = %d after cut, want 2", got)
	}
	l.OnSuccess(time.Millisecond) // run = 1 of the 2 now needed
	if got := l.Current(); got != 2 {
		t.Fatalf("limit grew from a stale pre-cut success run: %d", got)
	}
	l.OnSuccess(time.Millisecond)
	if got := l.Current(); got != 3 {
		t.Fatalf("limit = %d, want additive recovery to 3", got)
	}
}

// TestLimitDeterministicReplay drives the same schedule twice and
// demands identical trajectories — the acceptance criterion that the
// limiter is deterministic under a test clock.
func TestLimitDeterministicReplay(t *testing.T) {
	run := func() []int {
		clock := newLimitClock()
		l := newTestLimit(t, LimitConfig{
			Floor: 1, Ceiling: 24, Initial: 8,
			Target: 50 * time.Millisecond, Backoff: 0.5,
			Cooldown: time.Second, Now: clock.Now,
		})
		var traj []int
		for step := 0; step < 400; step++ {
			switch {
			case step%37 == 36:
				l.OnOverload()
			case step%11 == 10:
				l.OnSuccess(90 * time.Millisecond) // slow
			default:
				l.OnSuccess(5 * time.Millisecond)
			}
			clock.Advance(100 * time.Millisecond)
			traj = append(traj, l.Current())
		}
		return traj
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestLimitNeverExceedsCeiling hammers the limit from many goroutines
// with a mix of signals and asserts the clamp invariant throughout.
func TestLimitNeverExceedsCeiling(t *testing.T) {
	clock := newLimitClock()
	l := newTestLimit(t, LimitConfig{
		Floor: 1, Ceiling: 6, Initial: 3,
		Target: 50 * time.Millisecond, Cooldown: 10 * time.Millisecond, Now: clock.Now,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if g == 0 && i%100 == 99 {
					clock.Advance(20 * time.Millisecond)
					l.OnOverload()
				} else {
					l.OnSuccess(time.Millisecond)
				}
				if cur := l.Current(); cur > 6 || cur < 1 {
					t.Errorf("limit %d escaped [1, 6]", cur)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
