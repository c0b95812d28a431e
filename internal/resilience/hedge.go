package resilience

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Hedger decides when a request has waited long enough that racing a
// second attempt is cheaper than waiting out the straggler. It tracks a
// sliding window of observed latencies and hedges after the configured
// percentile of that window (so the hedge fires only for the slow tail),
// clamped to [MinDelay, MaxDelay]. Until enough observations exist it
// uses MinDelay.
//
// Hedging duplicates work by design — only hedge idempotent calls.
type Hedger struct {
	// Percentile in (0,1] of the observed latency window after which
	// the second attempt launches. Default 0.95.
	Percentile float64
	// MinDelay floors the hedge delay (and serves as the cold-start
	// delay before any observations). Default 50ms.
	MinDelay time.Duration
	// MaxDelay caps the hedge delay. Default 2s.
	MaxDelay time.Duration

	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

// hedgeWindow bounds the latency window; small enough to adapt fast.
const hedgeWindow = 256

func (h *Hedger) percentile() float64 {
	if h.Percentile <= 0 || h.Percentile > 1 {
		return 0.95
	}
	return h.Percentile
}

func (h *Hedger) minDelay() time.Duration {
	if h.MinDelay <= 0 {
		return 50 * time.Millisecond
	}
	return h.MinDelay
}

func (h *Hedger) maxDelay() time.Duration {
	if h.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return h.MaxDelay
}

// observe records one successful-attempt latency.
func (h *Hedger) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buf == nil {
		h.buf = make([]time.Duration, hedgeWindow)
	}
	h.buf[h.next] = d
	h.next++
	if h.next == len(h.buf) {
		h.next = 0
		h.full = true
	}
}

// delay returns the current hedge trigger: the configured percentile of
// the observed window, clamped to [MinDelay, MaxDelay].
func (h *Hedger) delay() time.Duration {
	h.mu.Lock()
	n := h.next
	if h.full {
		n = len(h.buf)
	}
	window := make([]time.Duration, n)
	copy(window, h.buf[:n])
	h.mu.Unlock()
	if len(window) == 0 {
		return h.minDelay()
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	idx := int(h.percentile() * float64(len(window)))
	if idx >= len(window) {
		idx = len(window) - 1
	}
	d := window[idx]
	if min := h.minDelay(); d < min {
		d = min
	}
	if max := h.maxDelay(); d > max {
		d = max
	}
	return d
}

// hedgeResult carries one attempt's outcome to the selector.
type hedgeResult[T any] struct {
	val     T
	err     error
	elapsed time.Duration
	primary bool
}

// Hedge runs fn, and if it has not finished after h.Delay(), races a
// second invocation; the first result to arrive wins and the loser is
// cancelled through its context. Both failing returns the primary's
// error. The winner's latency feeds the percentile window, so the
// trigger tracks the backend's current speed. A nil h never hedges.
func Hedge[T any](ctx context.Context, h *Hedger, fn func(ctx context.Context) (T, error)) (T, error) {
	if h == nil {
		return fn(ctx)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan hedgeResult[T], 2)
	launch := func(primary bool) {
		start := time.Now()
		v, err := fn(ctx)
		results <- hedgeResult[T]{val: v, err: err, elapsed: time.Since(start), primary: primary}
	}
	go launch(true)

	timer := time.NewTimer(h.delay())
	defer timer.Stop()

	launched := 1
	var firstErr error
	for seen := 0; seen < launched; seen++ {
		select {
		case r := <-results:
			if r.err == nil {
				h.observe(r.elapsed)
				return r.val, nil
			}
			// Prefer the primary's error — it is the undisturbed
			// attempt; the hedge may have died to the shared cancel.
			if r.primary || firstErr == nil {
				firstErr = r.err
			}
		case <-timer.C:
			hedgesTotal.Add(1)
			obs.AddEvent(ctx, "hedge.launch")
			go launch(false)
			launched = 2
			seen-- // the timer firing is not a result
		}
	}
	var zero T
	return zero, firstErr
}
