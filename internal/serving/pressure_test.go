package serving

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLevelHeaderWireValues(t *testing.T) {
	// "1" for raw is load-bearing: httpmw, loadgen, and the ring client
	// all predate the ladder and test X-PAS-Degraded for that value. So
	// is the number: pas_serving_pressure_level exports it, and raw must
	// never read 1.
	cases := []struct {
		level  Level
		num    int
		str    string
		header string
	}{
		{LevelFull, 0, "full", ""},
		{LevelRaw, 2, "raw", "1"},
	}
	for _, tc := range cases {
		if int(tc.level) != tc.num {
			t.Errorf("%v = %d, want %d", tc.level, int(tc.level), tc.num)
		}
		if got := tc.level.String(); got != tc.str {
			t.Errorf("(%d).String() = %q, want %q", tc.level, got, tc.str)
		}
		if got := tc.level.Header(); got != tc.header {
			t.Errorf("(%d).Header() = %q, want %q", tc.level, got, tc.header)
		}
	}
}

// saturate / relax drive the gauge with uniform observations until the
// EWMA converges enough to cross (or re-cross) the ladder thresholds.
func saturate(g *pressureGauge, n int, wait time.Duration, util float64) {
	for i := 0; i < n; i++ {
		g.observe(wait, util)
	}
}

// TestPressureLadderStepsAndRecovers walks the gauge up the ladder and
// back down, checking the one hysteresis band holds on both sides.
func TestPressureLadderStepsAndRecovers(t *testing.T) {
	g := newPressureGauge(100 * time.Millisecond)
	if g.current() != LevelFull {
		t.Fatal("fresh gauge not at LevelFull")
	}

	// Moderate pressure: wait ~70% of budget at ~70% utilization →
	// score converges to 0.7, inside the band but never above enterRaw
	// (0.85): the ladder has no rung to offer, so service stays full.
	saturate(g, 50, 70*time.Millisecond, 0.7)
	if got := g.current(); got != LevelFull {
		t.Fatalf("level = %v at score %.2f below enterRaw, want full", got, g.score)
	}

	// Saturation: full budget waits at full utilization → raw.
	saturate(g, 50, 100*time.Millisecond, 1)
	if got := g.current(); got != LevelRaw {
		t.Fatalf("level = %v at score %.2f, want raw", got, g.score)
	}

	// Partial recovery to ~0.7 (between exitRaw 0.6 and enterRaw 0.85)
	// holds raw, not flaps...
	saturate(g, 50, 70*time.Millisecond, 0.7)
	if got := g.current(); got != LevelRaw {
		t.Fatalf("level = %v at score %.2f inside the raw band, want raw held", got, g.score)
	}
	// ...and dropping below exitRaw goes straight back to full.
	saturate(g, 50, 40*time.Millisecond, 0.4)
	if got := g.current(); got != LevelFull {
		t.Fatalf("level = %v at score %.2f, want full after raw exit", got, g.score)
	}

	// One latch: full→raw→full is 2 moves.
	if _, _, transitions, _, _ := g.snapshot(); transitions != 2 {
		t.Fatalf("transitions = %d, want 2", transitions)
	}
}

// TestPressureRetryAfterFromDrainEWMA pins the Retry-After pricing
// (the satellite replacing the fixed constant): backlog divided by the
// limit, times the observed service EWMA, plus one service round.
func TestPressureRetryAfterFromDrainEWMA(t *testing.T) {
	g := newPressureGauge(100 * time.Millisecond)

	// No observed computation yet: the hint is the legacy constant 1.
	if got := g.retryAfter(50, 4); got != 1 {
		t.Fatalf("cold retryAfter = %d, want 1", got)
	}

	// One 2s computation: svcEWMA = 0.2·2000ms = 400ms.
	g.observeService(2 * time.Second)
	cases := []struct {
		waiting, limit, want int
	}{
		{0, 1, 1},    // ceil(400ms·1) = 1s
		{9, 2, 3},    // 9/2+1 = 5.5 rounds · 400ms = 2.2s → 3s
		{9, 0, 4},    // a zero limit prices like 1: 10 rounds · 400ms → 4s
		{200, 1, 30}, // 201 rounds · 400ms = 80.4s → clamped to 30
	}
	for _, tc := range cases {
		if got := g.retryAfter(tc.waiting, tc.limit); got != tc.want {
			t.Errorf("retryAfter(%d, %d) = %d, want %d", tc.waiting, tc.limit, got, tc.want)
		}
	}
}

// brownoutCore builds a default core — the ladder is always armed.
func brownoutCore(t *testing.T, calls *int64) *Core {
	t.Helper()
	return mustNew(t, countingFunc(calls), Config{CacheSize: 64})
}

// TestCoreBrownoutRawSkipsAdmission: at the raw rung misses bypass
// computation entirely — nothing computed, nothing stored — and the
// caller is told to pass the prompt through; a full-quality cache hit
// still outranks the ladder, and draining outranks it the other way and
// sheds instead.
func TestCoreBrownoutRawSkipsAdmission(t *testing.T) {
	var calls int64
	c := brownoutCore(t, &calls)
	ctx := context.Background()

	// Warm one full-quality entry before any pressure.
	full, level, err := c.DoLevel(ctx, "warm", "s", "m")
	if err != nil || level != LevelFull {
		t.Fatalf("warm request = (%q, %v, %v)", full, level, err)
	}

	saturate(c.gauge, 50, 100*time.Millisecond, 1) // force raw
	v, level, err := c.DoLevel(ctx, "p", "s", "m")
	if err != nil || level != LevelRaw || v != "" {
		t.Fatalf("raw miss = (%q, %v, %v), want empty value at LevelRaw", v, level, err)
	}
	s := c.Stats()
	if calls != 1 || s.Cache.Entries != 1 {
		t.Fatalf("raw rung computed or stored (calls %d, entries %d), want only the warm-up's 1 and 1", calls, s.Cache.Entries)
	}
	if s.ServedRaw != 1 || s.PressureLevel != "raw" {
		t.Fatalf("stats = served_raw %d, level %s; want 1, raw", s.ServedRaw, s.PressureLevel)
	}
	// The warm key still serves its full complement, unflagged.
	vh, levelh, err := c.DoLevel(ctx, "warm", "s", "m")
	if err != nil || levelh != LevelFull || vh != full {
		t.Fatalf("warm hit under pressure = (%q, %v, %v), want full", vh, levelh, err)
	}

	// Drain beats brownout: a draining core sheds so routers fail over;
	// it must not keep absorbing traffic as fail-open 200s.
	c.Drain()
	if _, _, err := c.DoLevel(ctx, "p2", "s", "m"); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining browned-out core: err = %v, want ErrDraining", err)
	}
}

// TestCoreBrownoutRecoversUnderTraffic: raw-served requests observe
// the (now idle) core, so sustained traffic alone walks the ladder
// back to full service — no operator action needed.
func TestCoreBrownoutRecoversUnderTraffic(t *testing.T) {
	var calls int64
	c := brownoutCore(t, &calls)
	ctx := context.Background()

	saturate(c.gauge, 50, 100*time.Millisecond, 1)
	for i := 0; i < 500 && c.gauge.current() != LevelFull; i++ {
		if _, _, err := c.DoLevel(ctx, "recovery", "s", "m"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.gauge.current(); got != LevelFull {
		t.Fatalf("level = %v after sustained idle traffic, want full", got)
	}
	// Back at full: the key that was only ever answered raw computes its
	// real complement — the raw rung left nothing behind under it.
	v, level, err := c.DoLevel(ctx, "recovery", "s", "m")
	if err != nil || level != LevelFull || v != "pc:recovery/s" {
		t.Fatalf("post-recovery request = (%q, %v, %v), want full complement", v, level, err)
	}
}

// TestCoreRetryAfterColdDefault: a fresh core's hint is the legacy 1s.
func TestCoreRetryAfterColdDefault(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{})
	if got := c.RetryAfter(); got != 1 {
		t.Fatalf("cold RetryAfter = %d, want 1", got)
	}
}
