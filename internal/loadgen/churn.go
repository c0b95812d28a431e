package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/resilience"
	"repro/internal/wire"
)

// ChurnTarget is one replica to roll. The three hooks are how the
// orchestrator touches it; any may be nil and is then skipped — the
// HTTP controller in pasload, for example, drains with exit=true and
// leaves kill/restart to the process supervisor, detecting the rejoin
// through Ready polling alone.
type ChurnTarget struct {
	// URL is the replica base URL, used for readiness polling and the
	// event timeline.
	URL string
	// Drain asks the replica to stop taking new work (POST /v1/drain).
	Drain func(ctx context.Context) error
	// Kill stops the process/listener hard, after the drain linger.
	Kill func(ctx context.Context) error
	// Restart brings a fresh process up on the same address.
	Restart func(ctx context.Context) error
}

// ChurnPlan shapes one rolling restart: each target is drained,
// killed, restarted, and awaited in sequence while the load keeps
// running. Zero durations select defaults.
type ChurnPlan struct {
	Targets []ChurnTarget
	// Warmup runs load before anything is touched, filling caches.
	// Default 500ms.
	Warmup time.Duration
	// Measure, after the warmup, is the quiet window over which the
	// pre-churn hit ratio is sampled. Default = Cooldown, so the before
	// and after windows compare like for like.
	Measure time.Duration
	// DrainLinger is how long a drained replica keeps running before
	// the kill — time for the router to see "draining" and for
	// in-flight work to finish. Default 300ms.
	DrainLinger time.Duration
	// DownTime separates the kill from the restart. Default 200ms.
	DownTime time.Duration
	// RejoinTimeout bounds the wait for a restarted replica to answer
	// Ready. Default 5s.
	RejoinTimeout time.Duration
	// Settle runs load between one replica's rejoin and the next
	// replica's drain. Default 200ms.
	Settle time.Duration
	// Cooldown runs load after the last rejoin; the recovery hit ratio
	// is the cluster delta over this window. Default 500ms.
	Cooldown time.Duration
	// Ready reports whether a replica has rejoined: nil defaults to
	// GET /v1/status answering 200 with a non-draining status. The
	// orchestrator polls it every 20ms until RejoinTimeout.
	Ready func(ctx context.Context, url string) error
}

func (p ChurnPlan) withDefaults() ChurnPlan {
	if p.Warmup <= 0 {
		p.Warmup = 500 * time.Millisecond
	}
	if p.DrainLinger <= 0 {
		p.DrainLinger = 300 * time.Millisecond
	}
	if p.DownTime <= 0 {
		p.DownTime = 200 * time.Millisecond
	}
	if p.RejoinTimeout <= 0 {
		p.RejoinTimeout = 5 * time.Second
	}
	if p.Settle <= 0 {
		p.Settle = 200 * time.Millisecond
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 500 * time.Millisecond
	}
	if p.Measure <= 0 {
		p.Measure = p.Cooldown
	}
	return p
}

// ChurnEvent is one step of the rolling restart, stamped relative to
// the run start.
type ChurnEvent struct {
	Replica string `json:"replica"`
	// Phase is drain, kill, restart, or rejoin.
	Phase string `json:"phase"`
	AtMs  int64  `json:"at_ms"`
	// Error records a failed step; the roll continues to the next
	// replica regardless, and the caller judges the report.
	Error string `json:"error,omitempty"`
}

// ChurnReport is the rolling-restart evidence attached to a Report.
type ChurnReport struct {
	Events []ChurnEvent `json:"events"`
	// PreChurn* sample the cluster cache over a quiet window before the
	// first drain; Recovery* over the cooldown after the last rejoin.
	// The windows are the same length, so the two ratios compare
	// directly: recovery within a few points of pre-churn means the
	// caches survived (or refilled across) the roll.
	PreChurnLookups  int64   `json:"pre_churn_lookups"`
	PreChurnHitRatio float64 `json:"pre_churn_hit_ratio"`
	RecoveryLookups  int64   `json:"recovery_lookups"`
	RecoveryHitRatio float64 `json:"recovery_hit_ratio"`
}

// RunWithChurn replays load like Run while rolling every plan target
// in sequence: drain → linger → kill → downtime → restart → await
// ready → settle. The run ends when the roll (plus cooldown) does; the
// report carries the usual latency/error accounting plus the churn
// timeline and hit-ratio recovery windows. cfg.Requests and
// cfg.Duration are ignored — the churn is the clock. cfg.Replicas are
// scraped in windows rather than whole-run (a restart resets replica
// counters, which would corrupt a whole-run delta).
func RunWithChurn(ctx context.Context, cfg Config, plan ChurnPlan) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}
	plan = plan.withDefaults()
	if len(plan.Targets) == 0 {
		return Report{}, fmt.Errorf("loadgen: churn plan has no targets")
	}
	if plan.Ready == nil {
		hc := cfg.HTTPClient
		plan.Ready = func(ctx context.Context, url string) error {
			return statusReady(ctx, hc, url)
		}
	}

	replicas := cfg.Replicas
	inner := cfg
	inner.Replicas = nil // window scrapes below replace the whole-run delta
	inner.Requests = 0
	inner.Duration = 24 * time.Hour // the stop channel is the real bound
	stop := make(chan struct{})
	inner.Stop = stop

	churn := &ChurnReport{}
	start := time.Now()
	go func() {
		defer close(stop)
		runChurn(ctx, cfg.HTTPClient, replicas, plan, churn, start)
	}()

	rep, err := Run(ctx, inner)
	if err != nil {
		return rep, err
	}
	rep.Churn = churn
	return rep, nil
}

// runChurn executes the roll and fills the report. Orchestration
// failures land in the event timeline, not in an error return: the
// load run completes either way and the caller inspects the evidence.
func runChurn(ctx context.Context, hc *http.Client, replicas []string, plan ChurnPlan, churn *ChurnReport, start time.Time) {
	event := func(replica, phase string, err error) {
		e := ChurnEvent{Replica: replica, Phase: phase, AtMs: time.Since(start).Milliseconds()}
		if err != nil {
			e.Error = err.Error()
		}
		churn.Events = append(churn.Events, e)
	}
	step := func(replica, phase string, fn func(context.Context) error) {
		if fn == nil {
			return
		}
		event(replica, phase, fn(ctx))
	}

	if resilience.SleepContext(ctx, plan.Warmup) != nil {
		return
	}
	preA := scrapeReplicas(ctx, hc, replicas)
	if resilience.SleepContext(ctx, plan.Measure) != nil {
		return
	}
	preB := scrapeReplicas(ctx, hc, replicas)
	churn.PreChurnLookups, churn.PreChurnHitRatio = windowRatio(preA, preB)

	for _, t := range plan.Targets {
		step(t.URL, "drain", t.Drain)
		if resilience.SleepContext(ctx, plan.DrainLinger) != nil {
			return
		}
		step(t.URL, "kill", t.Kill)
		if resilience.SleepContext(ctx, plan.DownTime) != nil {
			return
		}
		step(t.URL, "restart", t.Restart)
		event(t.URL, "rejoin", awaitReady(ctx, plan, t.URL))
		if resilience.SleepContext(ctx, plan.Settle) != nil {
			return
		}
	}

	recA := scrapeReplicas(ctx, hc, replicas)
	if resilience.SleepContext(ctx, plan.Cooldown) != nil {
		return
	}
	recB := scrapeReplicas(ctx, hc, replicas)
	churn.RecoveryLookups, churn.RecoveryHitRatio = windowRatio(recA, recB)
}

// awaitReady polls plan.Ready until it succeeds or RejoinTimeout.
func awaitReady(ctx context.Context, plan ChurnPlan, url string) error {
	deadline := time.Now().Add(plan.RejoinTimeout)
	var lastErr error
	for {
		rctx, cancel := context.WithTimeout(ctx, plan.RejoinTimeout)
		lastErr = plan.Ready(rctx, url)
		cancel()
		if lastErr == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s not ready after %s: %w", url, plan.RejoinTimeout, lastErr)
		}
		if err := resilience.SleepContext(ctx, 20*time.Millisecond); err != nil {
			return err
		}
	}
}

// statusReady is the default readiness check: /v1/status answers 200
// and is not announcing a drain.
func statusReady(ctx context.Context, hc *http.Client, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/status", nil)
	if err != nil {
		return fmt.Errorf("loadgen: building readiness request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: readiness %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: readiness %s: status %d", url, resp.StatusCode)
	}
	var st wire.Status
	if err := json.Unmarshal(body, &st); err == nil && st.Status == wire.StatusDraining {
		return fmt.Errorf("loadgen: readiness %s: still draining", url)
	}
	return nil
}

// windowRatio pools the hit/miss deltas between two scrapes. Replicas
// whose scrape failed, or whose counters went backwards (a restart
// inside the window), are excluded — their delta is meaningless.
func windowRatio(before, after []replicaCache) (lookups int64, ratio float64) {
	var hits, misses int64
	for i := range before {
		if before[i].err != nil || after[i].err != nil {
			continue
		}
		dh := after[i].hits - before[i].hits
		dm := after[i].misses - before[i].misses
		if dh < 0 || dm < 0 {
			continue
		}
		hits += dh
		misses += dm
	}
	lookups = hits + misses
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	return lookups, ratio
}
