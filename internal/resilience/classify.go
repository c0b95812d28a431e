// Package resilience holds the failure-handling primitives of PAS's
// outbound calls:
//
//   - a context-aware retry executor (capped exponential backoff with
//     full jitter, server Retry-After hints, deadline- and budget-aware),
//   - a per-backend three-state circuit breaker (closed → open →
//     half-open with bounded probe admission), and
//   - a hedger that races a second attempt when the first overruns a
//     latency-percentile budget, and counts the attempts it launches.
//
// A failure is terminal (IsTerminal) or not: the retry executor stops
// on a terminal one, and a breaker's caller counts it healthy, since it
// says nothing about the backend.
//
// Two callers use them. chatapi.Client retries and breaks in front of a
// chat-completions API, so System.EnhanceContext gets both only when its
// downstream model is a chatapi.Remote; an in-process *simllm.Model is
// called once. The cluster router (internal/ring) keeps a breaker per
// replica and can hedge a read across two replicas. The proxy's hop to
// its chat upstream uses none of them: it forwards once and answers 502
// when the upstream cannot be reached.
//
// The package also ships the fault-injection doubles that make all of it
// deterministically testable: FaultyChatter scripts error/latency
// sequences at the simllm.Chatter level, ChaosTransport scripts drops, 429s,
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

// classified wraps an error with an explicit verdict.
type classified struct {
	err      error
	terminal bool
}

func (e *classified) Error() string { return e.err.Error() }
func (e *classified) Unwrap() error { return e.err }

// AsTerminal marks err as terminal: Do stops immediately and returns it.
func AsTerminal(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, terminal: true}
}

// AsRetryable marks err as retryable even when the chain would
// otherwise classify as terminal — e.g. a per-attempt timeout wrapping
// context.DeadlineExceeded, where only the attempt's clock ran out, not
// the caller's.
func AsRetryable(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err}
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

// IsTerminal reports whether err will not improve with repetition, so
// the retry executor returns it at once and a breaker counts the call
// healthy: client-side bugs (4xx), cancelled contexts and expired
// deadlines — the caller's clock ran out — and malformed responses.
// Explicitly classified errors keep their verdict. Everything else is
// retryable: transport drops, 5xx bursts, the far side shedding load
// (429/503, an open breaker), and errors of unknown shape. A nil error
// is terminal: there is nothing to retry.
func IsTerminal(err error) bool {
	if err == nil {
		return true
	}
	var c *classified
	if errors.As(err, &c) {
		return c.terminal
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
