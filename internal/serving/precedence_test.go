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

// TestCapHoldsAfterDeadlineMisses is the regression test for the shed
// cascade: queued deadline misses used to halve an adaptive limit, which
// only regrew on completions faster than a target measured from before
// the queue wait, so a backed-up queue ratcheted capacity down. The cap
// is fixed: after k misses Stats().Limit is still MaxInFlight, and
// MaxInFlight concurrent first-time prompts all run without queueing.
func TestCapHoldsAfterDeadlineMisses(t *testing.T) {
	const slots, misses = 4, 3
	release := make(chan struct{})
	c := mustNew(t, func(prompt, _ string) string {
		<-release
		return "pc:" + prompt
	}, Config{CacheSize: -1, MaxInFlight: slots, QueueDepth: misses, QueueWait: 20 * time.Millisecond})

	// fill runs one computation per slot and waits until all hold one.
	fill := func(round string) chan error {
		done := make(chan error, slots)
		for i := 0; i < slots; i++ {
			go func(i int) {
				_, err := c.Do(context.Background(), round+string(rune('a'+i)), "", "m")
				done <- err
			}(i)
		}
		waitFor(t, func() bool { return c.Stats().InFlight == slots })
		return done
	}
	drain := func(done chan error) {
		for i := 0; i < slots; i++ {
			release <- struct{}{}
		}
		for i := 0; i < slots; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}

	first := fill("first-")
	for i := 0; i < misses; i++ {
		if _, err := c.Do(context.Background(), "victim", "", "m"); !errors.Is(err, ErrDeadline) {
			t.Fatalf("queued victim %d: err = %v, want ErrDeadline", i, err)
		}
	}
	if st := c.Stats(); st.ShedDeadline != misses || st.Limit != slots {
		t.Fatalf("after %d deadline misses: shed_deadline = %d, limit = %d; want %d and the cap %d",
			misses, st.ShedDeadline, st.Limit, misses, slots)
	}
	drain(first)

	second := fill("second-")
	if st := c.Stats(); st.QueueDepth != 0 || st.Limit != slots {
		t.Fatalf("%d first-time prompts after the misses: %d queued, limit %d; want all running", slots, st.QueueDepth, st.Limit)
	}
	drain(second)
}

// TestShedIsOneAttempt: a shed request is not retried — it returns at
// once and enters the core exactly once — and the deprecated LimitFloor,
// Retries and RetryBudget fields change nothing about that.
func TestShedIsOneAttempt(t *testing.T) {
	type result struct {
		v                    string
		level                Level
		err                  string
		entered, shed, limit int64
	}
	shed := func(cfg Config) result {
		cfg.QueueDepth, cfg.QueueWait = 1, 5*time.Second
		c, release := occupied(t, cfg)
		defer release()
		parked := (&shedFixture{core: c}).fillQueue(t)
		before := c.Stats().Requests
		start := time.Now()
		v, level, err := c.DoLevel(context.Background(), "shed me", "", "m")
		if took := time.Since(start); took > time.Second {
			t.Fatalf("queue-full shed took %v; a shed is one attempt and returns at once", took)
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("err = %v, want ErrQueueFull", err)
		}
		st := c.Stats()
		release()
		if err := <-parked; err != nil {
			t.Fatal(err)
		}
		return result{v, level, err.Error(), st.Requests - before, st.ShedQueueFull, int64(st.Limit)}
	}
	zero := shed(Config{})
	if zero.entered != 1 {
		t.Fatalf("one shed request entered the core %d times, want 1", zero.entered)
	}
	if inert := shed(Config{LimitFloor: 7, Retries: 3, RetryBudget: time.Hour}); inert != zero {
		t.Fatalf("deprecated fields changed a shed:\n got %+v\nwant %+v", inert, zero)
	}
}
