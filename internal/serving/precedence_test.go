package serving

import (
	"context"
	"errors"
	"testing"
	"time"
)

// shedFixture is an overloaded single-slot core with every distress
// signal available on demand: the slot held, the one-deep queue full,
// and Drain a call away.
type shedFixture struct {
	core    *Core
	release func()
}

func newShedFixture(t *testing.T, degrade bool) *shedFixture {
	t.Helper()
	c, release := occupied(t, Config{
		QueueDepth: 1,
		QueueWait:  5 * time.Second,
		Degrade:    degrade,
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

// TestDrainDuringFullQueueShedsDraining is the satellite regression:
// a request refused while the core drains counts shed_draining even
// when the queue is simultaneously full — the drain is the reason, the
// full queue is incidental. The parked waiter, admitted pre-drain,
// still completes.
func TestDrainDuringFullQueueShedsDraining(t *testing.T) {
	f := newShedFixture(t, false)
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
//	client gone > draining > queue full > wait budget
//
// Each row stacks every condition at and below its own, so the matrix
// proves each signal outranks everything beneath it. The degrade rows
// pin fail-open: an overload shed is answered ("", true, nil) and
// counted degraded, while a draining core still sheds — it never
// degrades.
func TestShedPrecedenceMatrix(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 1))
	defer cancelExpired()

	cases := []struct {
		name     string
		fill     bool // park a waiter in the queue
		drain    bool
		degrade  bool // Config.Degrade
		ctx      context.Context
		timeout  time.Duration // see rowCtx
		wantErr  error         // nil: answered degraded and counted
		wantShed func(Stats) (int64, string)
	}{
		{
			name: "cancelled client outranks drain+full queue",
			fill: true, drain: true,
			ctx:     cancelled,
			wantErr: context.Canceled,
		},
		{
			name: "expired client deadline outranks drain",
			fill: true, drain: true,
			ctx:     expired,
			wantErr: context.DeadlineExceeded,
		},
		{
			name: "draining outranks full queue",
			fill: true, drain: true,
			ctx:     context.Background(),
			wantErr: ErrDraining,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedDraining, "shed_draining"
			},
		},
		{
			name:    "full queue outranks wait budget",
			fill:    true,
			ctx:     context.Background(),
			wantErr: ErrQueueFull,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedQueueFull, "shed_queue_full"
			},
		},
		{
			name:    "wait budget is the last resort",
			timeout: 30 * time.Millisecond,
			wantErr: errDeadline,
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
			name: "fail-open: draining sheds, never degrades",
			fill: true, drain: true, degrade: true,
			ctx:     context.Background(),
			wantErr: ErrDraining,
			wantShed: func(s Stats) (int64, string) {
				return s.ShedDraining, "shed_draining"
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
			f := newShedFixture(t, tc.degrade)
			defer f.release()
			var parked chan error
			if tc.fill {
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

			v, degraded, err := f.core.DoLevel(rowCtx(t, tc.ctx, tc.timeout), "victim", "", "m")
			wantDegraded := degradedBefore
			if tc.wantErr == nil {
				wantDegraded++
				if err != nil || !degraded || v != "" {
					t.Fatalf("DoLevel = (%q, %v, %v), want (\"\", true, nil)", v, degraded, err)
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

// TestFollowerDoesNotInheritItsLeadersClient: a single-flight follower
// shares its leader's result and its leader's shed, not its leader's
// client. When the leader's client hangs up while the leader is queued,
// a follower whose own context is live takes the key over and is served;
// it used to be handed the leader's context.Canceled, which is no
// overload, so a fail-open core answered it with an error.
func TestFollowerDoesNotInheritItsLeadersClient(t *testing.T) {
	c, release := occupied(t, Config{QueueDepth: 4, QueueWait: 5 * time.Second, Degrade: true})
	defer release()

	leaderCtx, hangUp := context.WithCancel(WithTenant(context.Background(), "a"))
	defer hangUp()
	leader := make(chan error, 1)
	go func() {
		_, err := c.Do(leaderCtx, "shared", "", "m")
		leader <- err
	}()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })

	type answer struct {
		v        string
		degraded bool
		err      error
	}
	follower := make(chan answer, 1)
	go func() {
		v, degraded, err := c.DoLevel(WithTenant(context.Background(), "b"), "shared", "", "m")
		follower <- answer{v, degraded, err}
	}()
	waitFor(t, func() bool { return c.flight.waiters(Key("shared", "", "m")) == 1 })

	hangUp()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader whose client hung up: err = %v, want context.Canceled", err)
	}
	release()
	if got := <-follower; got.err != nil || got.degraded || got.v != "pc:shared" {
		t.Fatalf("follower with a live client = (%q, %v, %v), want (\"pc:shared\", false, nil)", got.v, got.degraded, got.err)
	}
	if st := c.Stats(); st.Shed != 0 || st.Degraded != 0 {
		t.Fatalf("a hung-up leader is no shed: shed = %d, degraded = %d", st.Shed, st.Degraded)
	}
}

// TestFollowerDoesNotInheritAnotherTenantsShed: a follower shares its
// leader's admission shed only when they are the same tenant. When the
// leader of tenant "a" runs out of wait budget, a follower of "a" is
// answered with that shed (fail-open: degraded), while a follower of "b"
// leads the key itself, under its own tenant and what is left of its
// own budget, and is served once the slot frees. It used to be handed
// a's shed, so a quiet tenant paid for a flooder's queue.
func TestFollowerDoesNotInheritAnotherTenantsShed(t *testing.T) {
	c, release := occupied(t, Config{QueueDepth: 4, QueueWait: 5 * time.Second, Degrade: true})
	defer release()

	type answer struct {
		v        string
		degraded bool
		err      error
	}
	ask := func(ctx context.Context) chan answer {
		ch := make(chan answer, 1)
		go func() {
			v, degraded, err := c.DoLevel(ctx, "shared", "", "m")
			ch <- answer{v, degraded, err}
		}()
		return ch
	}
	// The leader's deadline, not QueueWait, ends its wait.
	leaderCtx, cancel := context.WithTimeout(WithTenant(context.Background(), "a"), 100*time.Millisecond)
	defer cancel()
	leader := ask(leaderCtx)
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })
	sameTenant := ask(WithTenant(context.Background(), "a"))
	waitFor(t, func() bool { return c.flight.waiters(Key("shared", "", "m")) == 1 })
	otherTenant := ask(WithTenant(context.Background(), "b"))
	waitFor(t, func() bool { return c.flight.waiters(Key("shared", "", "m")) == 2 })

	if got := <-leader; got.err != nil || !got.degraded {
		t.Fatalf("leader = (%q, %v, %v), want shed, degraded", got.v, got.degraded, got.err)
	}
	if got := <-sameTenant; got.err != nil || !got.degraded {
		t.Fatalf("follower of the leader's tenant = (%q, %v, %v), want its leader's shed, degraded", got.v, got.degraded, got.err)
	}
	release()
	if got := <-otherTenant; got.err != nil || got.degraded || got.v != "pc:shared" {
		t.Fatalf("follower of another tenant = (%q, %v, %v), want (\"pc:shared\", false, nil)", got.v, got.degraded, got.err)
	}
	sheds := map[string]int64{}
	for _, ts := range c.Stats().Tenants {
		sheds[ts.Tenant] = ts.Shed
	}
	if sheds["a"] != 1 || sheds["b"] != 0 || len(sheds) != 3 { // and the occupier's tenant
		t.Fatalf("sheds by tenant = %v, want a: 1, b: 0", sheds)
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
		if _, err := c.Do(context.Background(), "victim", "", "m"); !errors.Is(err, errDeadline) {
			t.Fatalf("queued victim %d: err = %v, want errDeadline", i, err)
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
// once and enters the core exactly once — and the five deprecated fields
// change nothing about that.
func TestShedIsOneAttempt(t *testing.T) {
	type result struct {
		v                    string
		degraded             bool
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
		v, degraded, err := c.DoLevel(context.Background(), "shed me", "", "m")
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
		return result{v, degraded, err.Error(), st.Requests - before, st.ShedQueueFull, int64(st.Limit)}
	}
	zero := shed(Config{})
	if zero.entered != 1 {
		t.Fatalf("one shed request entered the core %d times, want 1", zero.entered)
	}
	if inert := shed(Config{LimitFloor: 7, Retries: 3, RetryBudget: time.Hour, BreakerThreshold: 1, BreakerCooldown: -time.Hour, DefaultTenantWeight: -2}); inert != zero {
		t.Fatalf("deprecated fields changed a shed:\n got %+v\nwant %+v", inert, zero)
	}
}
