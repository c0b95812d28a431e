package serving

import (
	"testing"
	"time"
)

func TestLevelHeaderWireValues(t *testing.T) {
	// "1" for raw is load-bearing: httpmw, loadgen, and the ring client
	// all test X-PAS-Degraded for that value.
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

// TestPressureRetryAfterFromDrainEWMA pins the Retry-After pricing
// (the satellite replacing the fixed constant): backlog divided by the
// limit, times the observed service EWMA, plus one service round.
func TestPressureRetryAfterFromDrainEWMA(t *testing.T) {
	var g serviceGauge

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

// TestCoreRetryAfterColdDefault: a fresh core's hint is the legacy 1s.
func TestCoreRetryAfterColdDefault(t *testing.T) {
	var calls int64
	c := mustNew(t, countingFunc(&calls), Config{})
	if got := c.RetryAfter(); got != 1 {
		t.Fatalf("cold RetryAfter = %d, want 1", got)
	}
}
