package serving

import (
	"math"
	"sync"
	"time"
)

// Level is a rung of the brownout degradation ladder, and the one place
// that decides how many answers PAS may give: cat(p, M_p(p)) or p. Under
// sustained pressure the core steps full → raw, shedding the
// computation before it has to shed the request.
type Level int32

const (
	// LevelFull serves the full-model complement.
	LevelFull Level = 0
	// LevelRaw skips augmentation entirely: the caller answers with the
	// raw prompt, flagged degraded, without touching admission. It keeps
	// the value 2: pas_serving_pressure_level exports the number, and
	// dashboards read 1 as a rung that no longer exists.
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
// sent, so a browned-out response and a fail-open one read the same to
// every client.
func (l Level) Header() string {
	if l == LevelRaw {
		return "1"
	}
	return ""
}

// The ladder's hysteresis band, on the unitless pressure score in
// [0, 1]: the raw rung is entered at the upper threshold and left at
// the lower one, so a score oscillating around a boundary does not flap
// the ladder.
const (
	enterRaw = 0.85
	exitRaw  = 0.60
)

// pressureAlpha is the EWMA smoothing factor for all gauge averages.
// Event-driven (one update per observation, no wall-clock decay) so
// trajectories are deterministic under a pinned test clock.
const pressureAlpha = 0.2

// pressureGauge condenses the admission path's state into one score:
//
//	score = 0.5·min(1, waitEWMA/QueueWait) + 0.5·utilizationEWMA
//
// Queue wait says how long admission is stalling requests relative to
// the shed budget; slot utilization (inflight/MaxInFlight) says how much
// headroom the cap has left. Both at zero is a cold core; both at
// one is a core about to shed. The gauge also tracks a service-time
// EWMA, which prices Retry-After hints off the observed drain rate
// instead of a constant.
type pressureGauge struct {
	queueWaitMs float64 // normalizer for the wait term

	mu       sync.Mutex
	waitEWMA float64 // admission wait, ms
	utilEWMA float64 // inflight/MaxInFlight, [0, 1]
	svcEWMA  float64 // computation service time, ms
	score    float64
	level    Level // the hysteresis latch: set at enterRaw, cleared at exitRaw
	// transitions counts rung changes in either direction; the chaos
	// e2e asserts the ladder actually moved.
	transitions int64
}

func newPressureGauge(queueWait time.Duration) *pressureGauge {
	return &pressureGauge{queueWaitMs: float64(queueWait) / float64(time.Millisecond)}
}

// observe folds one admission outcome into the gauge: how long the
// request waited for a slot and the slot utilization at that
// moment. Sheds observe their full budget as the wait — the queue was
// saturated for at least that long.
func (g *pressureGauge) observe(wait time.Duration, utilization float64) {
	waitMs := float64(wait) / float64(time.Millisecond)
	g.mu.Lock()
	g.waitEWMA += pressureAlpha * (waitMs - g.waitEWMA)
	g.utilEWMA += pressureAlpha * (utilization - g.utilEWMA)
	waitFrac := 0.0
	if g.queueWaitMs > 0 {
		waitFrac = g.waitEWMA / g.queueWaitMs
		if waitFrac > 1 {
			waitFrac = 1
		}
	}
	g.score = 0.5*waitFrac + 0.5*g.utilEWMA
	g.relevelLocked()
	g.mu.Unlock()
}

// observeService folds one computation's duration into the drain-rate
// estimate behind RetryAfter.
func (g *pressureGauge) observeService(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	g.mu.Lock()
	g.svcEWMA += pressureAlpha * (ms - g.svcEWMA)
	g.mu.Unlock()
}

// relevelLocked applies the hysteresis band to the current score; a
// score between the two thresholds keeps the rung it has.
func (g *pressureGauge) relevelLocked() {
	next := g.level
	switch {
	case g.score >= enterRaw:
		next = LevelRaw
	case g.score <= exitRaw:
		next = LevelFull
	}
	if next != g.level {
		g.level = next
		g.transitions++
	}
}

// current returns the ladder rung the next miss should serve at.
func (g *pressureGauge) current() Level {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.level
}

// retryAfter estimates, in whole seconds clamped to [1, 30], how long
// a shed caller should back off: the time for the present queue to
// drain at the observed service rate across limit-wide concurrency,
// plus one service time for the retry itself.
func (g *pressureGauge) retryAfter(waiting, limit int) int {
	g.mu.Lock()
	svc := g.svcEWMA
	g.mu.Unlock()
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

// snapshot returns the gauge's state for Stats.
func (g *pressureGauge) snapshot() (score float64, level Level, transitions int64, waitMs, svcMs float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.score, g.level, g.transitions, g.waitEWMA, g.svcEWMA
}
