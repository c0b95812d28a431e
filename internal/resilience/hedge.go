package resilience

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Hedger decides when a request has waited long enough that racing a
// second attempt is cheaper than waiting out the straggler. It tracks a
// sliding window of observed latencies and hedges after the window's
// hedgePercentile (so the hedge fires only for the slow tail), clamped
// to [MinDelay, MaxDelay]. Until enough observations exist it uses
// MinDelay. It counts the second attempts it launches (Launches).
//
// Hedging duplicates work by design — only hedge idempotent calls.
type Hedger struct {
	// MinDelay floors the hedge delay and is the cold-start delay
	// before any observations; MaxDelay caps it. Both must be set:
	// there are no defaults here (ring.Config has the cluster's).
	MinDelay, MaxDelay time.Duration

	launches atomic.Int64

	mu   sync.Mutex
	buf  []time.Duration
	next int
	full bool
}

// hedgeWindow bounds the latency window; small enough to adapt fast.
const hedgeWindow = 256

// hedgePercentile is where in the observed latency window the second
// attempt launches.
const hedgePercentile = 0.95

// Launches returns how many second attempts h has launched; 0 for a
// nil h, which never hedges.
func (h *Hedger) Launches() int64 {
	if h == nil {
		return 0
	}
	return h.launches.Load()
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

// delay returns the current hedge trigger: the hedgePercentile of the
// observed window, clamped to [MinDelay, MaxDelay].
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
		return h.MinDelay
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	idx := min(int(hedgePercentile*float64(len(window))), len(window)-1)
	return min(max(window[idx], h.MinDelay), h.MaxDelay)
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
			h.launches.Add(1)
			obs.AddEvent(ctx, "hedge.launch")
			go launch(false)
			launched = 2
			seen-- // the timer firing is not a result
		}
	}
	var zero T
	return zero, firstErr
}
