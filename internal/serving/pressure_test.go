package serving

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLevelHeaderWireValues(t *testing.T) {
	// "1" for raw is load-bearing: httpmw, loadgen, and the ring client
	// all predate the ladder and test X-PAS-Degraded for that value.
	cases := []struct {
		level  Level
		str    string
		header string
	}{
		{LevelFull, "full", ""},
		{LevelTrim, "trim", "trim"},
		{LevelRaw, "raw", "1"},
	}
	for _, tc := range cases {
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

// TestPressureLadderStepsAndRecovers walks the gauge up the full
// ladder and back down, checking the hysteresis bands hold at each
// boundary.
func TestPressureLadderStepsAndRecovers(t *testing.T) {
	g := newPressureGauge(100 * time.Millisecond)
	if g.current() != LevelFull {
		t.Fatal("fresh gauge not at LevelFull")
	}

	// Moderate pressure: wait ~60% of budget at ~60% utilization →
	// score converges to 0.6, above enterTrim (0.5), below enterRaw.
	saturate(g, 50, 60*time.Millisecond, 0.6)
	if got := g.current(); got != LevelTrim {
		t.Fatalf("level = %v at score %.2f, want trim", got, g.score)
	}

	// Hysteresis: sagging to 0.4 (between exitTrim 0.35 and enterTrim
	// 0.5) must hold the trim rung, not flap.
	saturate(g, 50, 40*time.Millisecond, 0.4)
	if got := g.current(); got != LevelTrim {
		t.Fatalf("level = %v at score %.2f inside the trim band, want trim held", got, g.score)
	}

	// Saturation: full budget waits at full utilization → raw.
	saturate(g, 50, 100*time.Millisecond, 1)
	if got := g.current(); got != LevelRaw {
		t.Fatalf("level = %v at score %.2f, want raw", got, g.score)
	}

	// Partial recovery to ~0.7 (above exitRaw 0.6) holds raw...
	saturate(g, 50, 70*time.Millisecond, 0.7)
	if got := g.current(); got != LevelRaw {
		t.Fatalf("level = %v at score %.2f inside the raw band, want raw held", got, g.score)
	}
	// ...then dropping below exitRaw re-enters trim, and a quiet queue
	// walks all the way back to full.
	saturate(g, 50, 40*time.Millisecond, 0.4)
	if got := g.current(); got != LevelTrim {
		t.Fatalf("level = %v at score %.2f, want trim after raw exit", got, g.score)
	}
	saturate(g, 100, 0, 0)
	if got := g.current(); got != LevelFull {
		t.Fatalf("level = %v at score %.2f, want full after recovery", got, g.score)
	}

	// Up, down at both boundaries: full→trim→raw→trim→full is 4 moves.
	if _, _, transitions, _, _ := g.snapshot(); transitions != 4 {
		t.Fatalf("transitions = %d, want 4", transitions)
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

// brownoutCore builds a default core — the ladder is always armed —
// with a distinct cheap complement so the rung is visible in the
// payload.
func brownoutCore(t *testing.T, calls *int64, cheapCalls *int64) *Core {
	t.Helper()
	cheap := func(prompt, salt string) string {
		*cheapCalls++
		return "cheap:" + prompt
	}
	return mustNew(t, countingFunc(calls), Config{
		CacheSize: 64,
		CheapFn:   cheap,
	})
}

// TestCoreBrownoutTrimServesCheapComplement: at the trim rung the core
// serves CheapFn results under a trim-scoped cache key, so full-quality
// entries are neither served stale nor poisoned.
func TestCoreBrownoutTrimServesCheapComplement(t *testing.T) {
	var calls, cheapCalls int64
	c := brownoutCore(t, &calls, &cheapCalls)
	ctx := context.Background()

	// Warm the full-quality entry before any pressure.
	full, level, err := c.DoLevel(ctx, "warm", "s", "m")
	if err != nil || level != LevelFull {
		t.Fatalf("warm request = (%q, %v, %v)", full, level, err)
	}

	saturate(c.gauge, 50, 60*time.Millisecond, 0.6) // force trim
	v, level, err := c.DoLevel(ctx, "fresh", "s", "m")
	if err != nil || level != LevelTrim || v != "cheap:fresh" {
		t.Fatalf("trim miss = (%q, %v, %v), want cheap complement", v, level, err)
	}
	// The trim result was cached under its own key: a repeat serves it
	// again without recomputing, still flagged trim.
	v2, level2, err := c.DoLevel(ctx, "fresh", "s", "m")
	if err != nil || level2 != LevelTrim || v2 != v {
		t.Fatalf("trim repeat = (%q, %v, %v)", v2, level2, err)
	}
	if cheapCalls != 1 {
		t.Fatalf("cheap complement computed %d times, want 1 (trim cache)", cheapCalls)
	}
	// A full-quality cache hit outranks the ladder: the warm key still
	// serves its full complement.
	vh, levelh, err := c.DoLevel(ctx, "warm", "s", "m")
	if err != nil || levelh != LevelFull || vh != full {
		t.Fatalf("warm hit under pressure = (%q, %v, %v), want full", vh, levelh, err)
	}
	s := c.Stats()
	if s.ServedTrim != 2 || s.PressureLevel != "trim" {
		t.Fatalf("stats = served_trim %d, level %s; want 2, trim", s.ServedTrim, s.PressureLevel)
	}
	// And the other way round: once pressure clears, the key that was
	// served (and cached) at trim computes its full complement — the
	// cheap result was never stored under the full-quality key.
	saturate(c.gauge, 100, 0, 0)
	vf, levelf, err := c.DoLevel(ctx, "fresh", "s", "m")
	if err != nil || levelf != LevelFull || vf != "pc:fresh/s" {
		t.Fatalf("post-recovery request = (%q, %v, %v), want the full complement", vf, levelf, err)
	}
}

// TestCoreBrownoutRawSkipsAdmission: at the raw rung misses bypass
// computation entirely and the caller is told to pass the prompt
// through; draining still outranks the ladder and sheds instead.
func TestCoreBrownoutRawSkipsAdmission(t *testing.T) {
	var calls, cheapCalls int64
	c := brownoutCore(t, &calls, &cheapCalls)
	ctx := context.Background()

	saturate(c.gauge, 50, 100*time.Millisecond, 1) // force raw
	v, level, err := c.DoLevel(ctx, "p", "s", "m")
	if err != nil || level != LevelRaw || v != "" {
		t.Fatalf("raw miss = (%q, %v, %v), want empty value at LevelRaw", v, level, err)
	}
	if calls != 0 || cheapCalls != 0 {
		t.Fatalf("raw rung computed (full %d, cheap %d), want no computation", calls, cheapCalls)
	}
	if s := c.Stats(); s.ServedRaw != 1 {
		t.Fatalf("served_raw = %d, want 1", s.ServedRaw)
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
	var calls, cheapCalls int64
	c := brownoutCore(t, &calls, &cheapCalls)
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
	// Back at full: the next miss computes the real complement again.
	v, level, err := c.DoLevel(ctx, "recovered", "s", "m")
	if err != nil || level != LevelFull || v != "pc:recovered/s" {
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
