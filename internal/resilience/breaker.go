package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Breaker.Allow while the circuit is open (or
// half-open with its probe quota in flight). It is not terminal, so a
// retry schedule backs off and tries again rather than giving up.
var ErrOpen = errors.New("resilience: circuit open")

// State is a breaker position.
type State int

// The positions, in order of severity.
const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed State = iota
	// HalfOpen: one request at a time is admitted to test the backend;
	// everyone else is still rejected.
	HalfOpen
	// Open: traffic is rejected outright until the cooldown elapses.
	Open
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig sizes a circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the
	// circuit. 0 means never: the breaker admits everything, records
	// outcomes, and stays closed — the one meaning of "threshold 0"
	// everywhere a breaker is configured, so callers always build one
	// instead of guarding a nil.
	Threshold int
	// Cooldown is how long the circuit stays open before admitting a
	// half-open probe. Default 5s.
	Cooldown time.Duration
	// Now injects the clock; tests pin it. Default time.Now.
	Now func() time.Time
}

// halfOpenProbes bounds in-flight probes while half-open: at most one
// request per cooldown window reaches a dead backend.
const halfOpenProbes = 1

func (cfg BreakerConfig) withDefaults() BreakerConfig {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// Breaker is a three-state circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecutive int       // failures since the last success (closed state)
	openedAt    time.Time // when the circuit last opened
	probes      int       // in-flight half-open probes
}

// NewBreaker builds a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow asks to pass one request through the breaker. On admission it
// returns a done callback the caller MUST invoke exactly once with the
// outcome; on rejection it returns ErrOpen. Outcomes: done(true) counts
// a success (closing a half-open circuit, resetting the failure streak),
// done(false) counts a failure (reopening a half-open circuit,
// lengthening the streak). Callers pass true for outcomes that say
// nothing about backend health (e.g. the client cancelled).
func (b *Breaker) Allow() (done func(success bool), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return nil, ErrOpen
		}
		b.state = HalfOpen
		b.probes = 0
		fallthrough
	case HalfOpen:
		if b.probes >= halfOpenProbes {
			return nil, ErrOpen
		}
		b.probes++
	}
	return b.once(), nil
}

// once wraps the outcome recording so a double done() cannot corrupt
// the probe accounting.
func (b *Breaker) once() func(success bool) {
	var used sync.Once
	return func(success bool) {
		used.Do(func() { b.record(success) })
	}
}

func (b *Breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if success {
			b.consecutive = 0
			return
		}
		b.consecutive++
		if b.cfg.Threshold > 0 && b.consecutive >= b.cfg.Threshold {
			b.trip()
		}
	case HalfOpen:
		b.probes--
		if success {
			b.state = Closed
			b.consecutive = 0
			return
		}
		b.trip()
	case Open:
		// A straggler from before the trip; the streak already counted.
	}
}

// trip opens the circuit. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.probes = 0
}

// State reports the current position, advancing open → half-open when
// the cooldown has elapsed so monitoring never shows a stale "open".
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}
