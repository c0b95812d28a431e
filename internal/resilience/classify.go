// Package resilience hardens the outbound path of the PAS system: every
// call that leaves the process — chatapi.Client to a public LLM API, the
// reverse proxy to its upstream, System.Enhance to the main model — goes
// through some combination of
//
//   - a context-aware retry executor (capped exponential backoff with
//     full jitter, server Retry-After hints, deadline- and budget-aware),
//   - a per-backend three-state circuit breaker (closed → open →
//     half-open with bounded probe admission), and
//   - a hedger that races a second attempt when the first overruns a
//     latency-percentile budget.
//
// The package also ships the fault-injection doubles that make all of it
// deterministically testable: FaultyChatter scripts error/latency
// sequences at the Chatter level, ChaosTransport scripts drops, 429s,
// bursts of 500s, and slow bodies at the http.RoundTripper level.
//
// PAS is plug-and-play (§3.4): r_e = LLM(cat(p, M_p(p))) is only worth
// deploying if the augmentation layer never makes the downstream call
// less reliable than calling the main model directly. The primitives
// here exist so the serving layer can fail open to the raw prompt
// instead of failing closed with a 5xx.
package resilience

import (
	"context"
	"errors"
	"time"
)

// Class is the retry classification of an error.
type Class int

const (
	// Retryable errors are transient faults — transport drops, 5xx
	// bursts — worth another attempt after a backoff.
	Retryable Class = iota
	// Terminal errors will not improve with repetition: client-side
	// bugs (4xx), cancelled contexts, malformed responses.
	Terminal
	// Overload errors are the far side shedding load (429/503, open
	// breakers, full queues). They are retryable, but the retry delay
	// should respect the server's Retry-After hint when one exists, and
	// they count against circuit-breaker health.
	Overload
)

func (c Class) String() string {
	switch c {
	case Retryable:
		return "retryable"
	case Terminal:
		return "terminal"
	case Overload:
		return "overload"
	}
	return "unknown"
}

// classified wraps an error with an explicit class.
type classified struct {
	err   error
	class Class
}

func (e *classified) Error() string { return e.err.Error() }
func (e *classified) Unwrap() error { return e.err }

// AsTerminal marks err as terminal: Do stops immediately and returns it.
func AsTerminal(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Terminal}
}

// AsRetryable marks err as retryable even when the chain would
// otherwise classify as terminal — e.g. a per-attempt timeout wrapping
// context.DeadlineExceeded, where only the attempt's clock ran out, not
// the caller's.
func AsRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Retryable}
}

// AsOverload marks err as an overload shed from the far side.
func AsOverload(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Overload}
}

// retryAfterError carries a server-provided Retry-After hint.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// WithRetryAfter attaches a server Retry-After hint to err; the retry
// executor sleeps exactly the hint instead of its own backoff.
func WithRetryAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &retryAfterError{err: err, after: after}
}

// retryAfterHint extracts the server's Retry-After hint from err, if any
// wrapper in the chain carries one.
func retryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// Classify reports how the retry executor should treat err. Context
// cancellation and deadline expiry are terminal — the caller's clock ran
// out, repeating cannot help. Explicitly classified errors keep their
// class; ErrOpen (a local breaker refusing the call) is overload.
// Everything else defaults to retryable, the right bias for transport
// errors of unknown shape.
func Classify(err error) Class {
	if err == nil {
		return Terminal // nothing to retry
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Terminal
	}
	if errors.Is(err, ErrOpen) {
		return Overload
	}
	return Retryable
}
