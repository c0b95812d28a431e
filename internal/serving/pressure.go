package serving

import (
	"math"
	"sync"
	"time"
)

// Level is how a request was answered, and the one place that decides
// how many answers PAS may give: cat(p, M_p(p)) or p. A core answers
// below full only when it sheds with Config.Degrade set.
type Level int32

const (
	// LevelFull serves the full-model complement.
	LevelFull Level = 0
	// LevelRaw skips augmentation entirely: the caller answers with the
	// raw prompt, flagged degraded. It is 2, not 1: the number was
	// exported while a level 1 existed, and 1 must never read as raw.
	LevelRaw Level = 2
)

func (l Level) String() string {
	if l == LevelRaw {
		return "raw"
	}
	return "full"
}

// Header is l's X-PAS-Degraded wire value: empty for full service and
// "1" for raw passthrough — the value the fail-open path has always
// sent, so every client reads a raw answer the same way.
func (l Level) Header() string {
	if l == LevelRaw {
		return "1"
	}
	return ""
}

// serviceAlpha is the EWMA smoothing factor of the service-time
// estimate. Event-driven (one update per observation, no wall-clock
// decay) so it is deterministic under a pinned test clock.
const serviceAlpha = 0.2

// serviceGauge tracks a computation service-time EWMA, which prices
// Retry-After hints off the observed drain rate instead of a constant.
type serviceGauge struct {
	mu      sync.Mutex
	svcEWMA float64 // computation service time, ms
}

// observeService folds one computation's duration into the drain-rate
// estimate behind RetryAfter.
func (g *serviceGauge) observeService(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	g.mu.Lock()
	g.svcEWMA += serviceAlpha * (ms - g.svcEWMA)
	g.mu.Unlock()
}

// serviceMs returns the current service-time estimate in milliseconds.
func (g *serviceGauge) serviceMs() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.svcEWMA
}

// retryAfter estimates, in whole seconds clamped to [1, 30], how long
// a shed caller should back off: the time for the present queue to
// drain at the observed service rate across limit-wide concurrency,
// plus one service time for the retry itself.
func (g *serviceGauge) retryAfter(waiting, limit int) int {
	svc := g.serviceMs()
	if svc <= 0 {
		return 1
	}
	if limit < 1 {
		limit = 1
	}
	rounds := float64(waiting)/float64(limit) + 1
	secs := int(math.Ceil(svc * rounds / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}
