package serving

import (
	"context"
	"errors"
	"testing"
	"time"
)

// shedFixture is an overloaded single-slot core with every distress
// signal available on demand: the slot held, the one-deep queue full,
// a 1-threshold breaker that can be tripped, and Drain a call away.
type shedFixture struct {
	core    *Core
	release func()
}

func newShedFixture(t *testing.T, breakerThreshold int, degrade bool) *shedFixture {
	t.Helper()
	c, release := occupied(t, Config{
		QueueDepth:       1,
		QueueWait:        5 * time.Second,
		BreakerThreshold: breakerThreshold,
		Degrade:          degrade,
	})
	return &shedFixture{core: c, release: release}
}

// fillQueue parks a waiter in the one-deep admission queue.
func (f *shedFixture) fillQueue(t *testing.T) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := f.core.Do(context.Background(), "parked", "", "m")
		done <- err
	}()
	waitFor(t, func() bool { return f.core.Stats().QueueDepth == 1 })
	return done
}

// tripBreaker opens the 1-threshold breaker with one queue-full shed
// (which a fail-open fixture answers at the raw rung, without error).
func (f *shedFixture) tripBreaker(t *testing.T) {
	t.Helper()
	parked := f.fillQueue(t)
	if _, err := f.core.Do(context.Background(), "tripper", "", "m"); err != nil && !errors.Is(err, ErrQueueFull) {
		t.Fatalf("tripper: err = %v, want ErrQueueFull", err)
	}
	if st := f.core.Stats(); st.Breaker.State != "open" {
		t.Fatalf("breaker not open after shed: %+v", f.core.Stats().Breaker)
	}
	// Drain the parked waiter's error later via the caller if needed;
	// it stays queued and completes once the slot frees.
	go func() { <-parked }()
}

// TestDrainDuringFullQueueShedsDraining is the satellite regression:
// a request refused while the core drains counts shed_draining even
// when the queue is simultaneously full — the drain is the reason, the
// full queue is incidental. The parked waiter, admitted pre-drain,
// still completes.
func TestDrainDuringFullQueueShedsDraining(t *testing.T) {
	f := newShedFixture(t, 0, false)
	parked := f.fillQueue(t)

	f.core.Drain()
	if _, err := f.core.Do(context.Background(), "victim", "", "m"); !errors.Is(err, ErrDraining) {
		t.Fatalf("drain + full queue: err = %v, want ErrDraining", err)
	}
	s := f.core.Stats()
	if s.ShedDraining != 1 || s.ShedQueueFull != 0 {
		t.Fatalf("shed_draining = %d, shed_queue_full = %d; want 1, 0", s.ShedDraining, s.ShedQueueFull)
	}

	f.release()
	if err := <-parked; err != nil {
		t.Fatalf("pre-drain waiter must still complete: %v", err)
	}
}

// TestShedPrecedenceMatrix pins the refusal order when several
// conditions hold at once:
//
//	client gone > draining > breaker open > queue full > wait budget
//
// Each row stacks every condition at and below its own, so the matrix
// proves each signal outranks everything beneath it. The degrade rows
// pin fail-open as the ladder's last rung: an overload shed is answered
// ("", LevelRaw, nil) and counted degraded, while a draining core still
// sheds — it never degrades.
func TestShedPrecedenceMatrix(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancelExpired()

	cases := []struct {
		name     string
		breaker  int  // threshold; 0 = unarmed
		trip     bool // open the breaker first
		fill     bool // park a waiter in the queue
		drain    bool
		degrade  bool // Config.Degrade
		ctx      context.Context
		wantErr  error // nil: served at LevelRaw and counted degraded
		wantShed func(Stats) (int64, string)
	}{
		{
			name:    "cancelled client outranks drain+breaker+full queue",
			breaker: 1, trip: true, fill: true, drain: true,
			ctx:     cancelled,
			wantErr: context.Canceled,
		},
		{
			name:    "expired client deadline outranks drain",
			breaker: 0, fill: true, drain: true,
			ctx:     expired,
			wantErr: context.DeadlineExceeded,
		},
		{
			name:    "draining outranks open breaker and full queue",
			breaker: 1, trip: true, fill: true, drain: true,
			ctx:     context.Background(),
			wantErr: ErrDraining,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedDraining, "shed_draining"
			},
		},
		{
			name:    "open breaker outranks full queue",
			breaker: 1, trip: true, fill: true,
			ctx:     context.Background(),
			wantErr: ErrBreakerOpen,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedBreaker, "shed_breaker"
			},
		},
		{
			name:    "full queue outranks wait budget",
			breaker: 0, fill: true,
			ctx:     context.Background(),
			wantErr: ErrQueueFull,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedQueueFull, "shed_queue_full"
			},
		},
		{
			name:    "wait budget is the last resort",
			breaker: 0,
			ctx:     deadlineCtx(30 * time.Millisecond),
			wantErr: ErrDeadline,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedDeadline, "shed_deadline"
			},
		},
		{
			name: "fail-open: cancelled client is not degraded",
			fill: true, degrade: true,
			ctx:     cancelled,
			wantErr: context.Canceled,
		},
		{
			name:    "fail-open: draining sheds, never degrades",
			breaker: 1, trip: true, fill: true, drain: true, degrade: true,
			ctx:     context.Background(),
			wantErr: ErrDraining,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedDraining, "shed_draining"
			},
		},
		{
			name:    "fail-open: open breaker is answered at the raw rung",
			breaker: 1, trip: true, fill: true, degrade: true,
			ctx: context.Background(),
			wantShed: func(s Stats) (int64, string) {
				return s.ShedBreaker, "shed_breaker"
			},
		},
		{
			name: "fail-open: full queue is answered at the raw rung",
			fill: true, degrade: true,
			ctx: context.Background(),
			wantShed: func(s Stats) (int64, string) {
				return s.ShedQueueFull, "shed_queue_full"
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newShedFixture(t, tc.breaker, tc.degrade)
			defer f.release()
			if tc.trip {
				f.tripBreaker(t)
			}
			var parked chan error
			if tc.fill && !tc.trip { // tripBreaker already filled the queue
				parked = f.fillQueue(t)
			}
			before, _ := int64(0), ""
			if tc.wantShed != nil {
				before, _ = tc.wantShed(f.core.Stats())
			}
			if tc.drain {
				f.core.Drain()
			}
			degradedBefore := f.core.Stats().Degraded

			v, level, err := f.core.DoLevel(tc.ctx, "victim", "", "m")
			wantDegraded := degradedBefore
			if tc.wantErr == nil {
				wantDegraded++
				if err != nil || level != LevelRaw || v != "" {
					t.Fatalf("DoLevel = (%q, %v, %v), want (\"\", raw, nil)", v, level, err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := f.core.Stats().Degraded; got != wantDegraded {
				t.Fatalf("degraded = %d, want %d", got, wantDegraded)
			}
			if tc.wantShed != nil {
				after, name := tc.wantShed(f.core.Stats())
				if after != before+1 {
					t.Fatalf("%s = %d, want %d", name, after, before+1)
				}
			}
			f.release()
			if parked != nil {
				<-parked // queued pre-condition traffic always resolves
			}
			waitFor(t, func() bool { return f.core.Stats().InFlight == 0 })
		})
	}
}

// adaptiveCore builds a 2-ceiling core whose fn blocks on the
// given prompts, plus the cut sequence every adaptive test starts
// with: saturate both slots, miss a deadline in the queue, and verify
// the AIMD limit was cut 2 → 1.
func adaptiveCore(t *testing.T, target time.Duration) (c *Core, release chan struct{}, entered chan struct{}, blocked chan error) {
	t.Helper()
	release = make(chan struct{})
	entered = make(chan struct{}, 8)
	fn := func(prompt, salt string) string {
		if prompt == "block-a" || prompt == "block-b" || prompt == "hold" {
			entered <- struct{}{}
			<-release
		}
		return "pc:" + prompt
	}
	c = mustNew(t, fn, Config{
		CacheSize:   -1,
		MaxInFlight: 2,
		QueueDepth:  1,
		QueueWait:   5 * time.Second,
		LimitTarget: target,
	})
	if got := c.Stats().Limit; got != 2 {
		t.Fatalf("initial limit = %d, want the MaxInFlight ceiling 2", got)
	}
	blocked = make(chan error, 2)
	for _, p := range []string{"block-a", "block-b"} {
		go func(p string) {
			_, err := c.Do(context.Background(), p, "", "m")
			blocked <- err
		}(p)
	}
	<-entered
	<-entered
	if _, err := c.Do(deadlineCtx(20*time.Millisecond), "victim", "", "m"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	s := c.Stats()
	if s.Limit != 1 || s.AdaptiveLimit.Cuts != 1 {
		t.Fatalf("after deadline miss: limit = %d, adaptive = %+v; want 1 with one cut", s.Limit, s.AdaptiveLimit)
	}
	return c, release, entered, blocked
}

// TestCoreAdaptiveLimitGatesAdmission: after a cut the reduced limit
// really bounds concurrency — a second request queues instead of
// running. The 1ns target keeps every success "slow" so the limit
// cannot regrow mid-test.
func TestCoreAdaptiveLimitGatesAdmission(t *testing.T) {
	c, release, entered, blocked := adaptiveCore(t, time.Nanosecond)

	// Unblock the saturating pair; at target 1ns their successes hold
	// the limit at 1.
	for i := 0; i < 2; i++ {
		release <- struct{}{}
	}
	for i := 0; i < 2; i++ {
		if err := <-blocked; err != nil {
			t.Fatalf("blocked request %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return c.Stats().InFlight == 0 })
	if got := c.Stats().Limit; got != 1 {
		t.Fatalf("limit = %d, want still 1 (no sub-target successes)", got)
	}

	held := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "hold", "", "m")
		held <- err
	}()
	<-entered
	queued := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "queued", "", "m")
		queued <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })
	if got := c.Stats().InFlight; got != 1 {
		t.Fatalf("in_flight = %d under cut limit 1, want 1", got)
	}
	release <- struct{}{}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
}

// TestCoreAdaptiveLimitRecoversToCeiling: with a generous target,
// healthy completions regrow a cut limit back to — and never past —
// the MaxInFlight ceiling.
func TestCoreAdaptiveLimitRecoversToCeiling(t *testing.T) {
	c, release, _, blocked := adaptiveCore(t, time.Minute)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-blocked; err != nil {
			t.Fatalf("blocked request %d: %v", i, err)
		}
	}
	waitFor(t, func() bool { return c.Stats().InFlight == 0 })

	for i := 0; i < 10; i++ {
		if _, err := c.Do(context.Background(), "healthy", "", "m"); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().Limit; got > 2 {
			t.Fatalf("limit %d exceeded the ceiling", got)
		}
	}
	if got := c.Stats().Limit; got != 2 {
		t.Fatalf("recovered limit = %d, want back at ceiling 2", got)
	}
}
