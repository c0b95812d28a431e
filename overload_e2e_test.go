package pas

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/httpmw"
	"repro/internal/loadgen"
)

// overloadFixture is one passerve-equivalent replica tuned for the
// overload drill: caching off so every request costs a computation,
// a padded compute (the -compute-delay knob) so a modest request rate
// saturates it, and a small concurrency cap — nothing opted into: the
// cap, the tenant fair-share queue and the ladder are the one admission
// path. Requests reach the queue via the same httpmw.Tenant middleware
// passerve mounts.
type overloadFixture struct {
	sys *System
	srv *httptest.Server
}

func newOverloadFixture(t *testing.T) *overloadFixture {
	t.Helper()
	model := testSystem(t).System.model
	sys := NewSystem(model)
	if err := sys.EnableServing(ServingConfig{
		CacheSize:    -1,
		ComputeDelay: 25 * time.Millisecond,
		MaxInFlight:  4,
		QueueDepth:   64,
		QueueWait:    250 * time.Millisecond,
		// Fail closed: a hard shed must surface as a deliberate 503 so
		// the isolation numbers count refusals instead of hiding them
		// behind fail-open passthroughs.
		Degrade: false,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpmw.Chain(sys.Handler(), httpmw.Tenant()))
	t.Cleanup(srv.Close)
	return &overloadFixture{sys: sys, srv: srv}
}

// pressureRung reads the brownout rung the replica is advertising on
// /v1/status ("" full, "raw"). ok is false when the probe
// itself failed — callers run it from a watcher goroutine, so it never
// fails the test directly.
func (f *overloadFixture) pressureRung() (rung string, ok bool) {
	resp, err := http.Get(f.srv.URL + "/v1/status")
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	var wire struct {
		Pressure string `json:"pressure"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return "", false
	}
	return wire.Pressure, true
}

// overloadScenario holds both phases of the drill plus the ladder rungs
// observed while the flood ran — the shape committed as
// BENCH_overload.json.
type overloadScenario struct {
	// Solo is the well-behaved tenant alone at its normal rate; Flood
	// adds a 10x-share noisy neighbor offering ~2.75x the replica's
	// capacity in requests. Caching is off, but single-flight still
	// collapses repeats of a prompt that is queued or computing, so how
	// many computations that is depends on the corpus. The generator's
	// zipf draw over 256 prompts puts 171 distinct ones into the flood's
	// 1,300 requests: enough first-time work to overrun the queue's wait
	// budget, shed, and reach the raw rung on every run. Over 128
	// prompts or fewer (this drill drew from 64 before) nearly every
	// arrival attaches to a computation already waiting, the queue
	// absorbs the rest, and no reduced rung is ever reached. Larger
	// corpora hold the bounds too — with the concurrency cap fixed this
	// test was 10/10 under -race and 20/20 plain at 256 and at 4096
	// prompts — so 256 is simply the smallest corpus that saturates.
	Solo  loadgen.Report `json:"solo"`
	Flood loadgen.Report `json:"flood"`
	// RungsSeen are the /v1/status pressure values observed during the
	// flood; RecoveredMs is how long after the flood the gauge took to
	// advertise full quality again.
	RungsSeen   []string `json:"rungs_seen"`
	RecoveredMs float64  `json:"recovered_ms"`
}

// runOverloadScenario drives the two-phase drill against a fresh
// fixture. Capacity is ~160 QPS (ceiling 4 / 25ms compute): the solo
// phase offers 40 QPS from one tenant; the flood phase offers ~440 QPS
// total with tenant t0 carrying 10x t1's share — so t1 still offers its
// solo ~40 QPS while t0 floods. Both phases draw from 256 distinct
// prompts (see overloadScenario.Flood for why that many).
func runOverloadScenario(t *testing.T) overloadScenario {
	t.Helper()
	f := newOverloadFixture(t)
	ctx := context.Background()
	corpus := benchPrompts(256)

	solo, err := loadgen.Run(ctx, loadgen.Config{
		Target:      f.srv.URL,
		Prompts:     corpus,
		Requests:    120,
		QPS:         40,
		Concurrency: 16,
		Seed:        3,
		Tenants:     1, // every request labeled t0 — the solo baseline
	})
	if err != nil {
		t.Fatal(err)
	}

	// Watch the ladder while the flood runs.
	rungs := make(map[string]bool)
	watcherStop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		tick := time.NewTicker(15 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watcherStop:
				return
			case <-tick.C:
				if rung, ok := f.pressureRung(); ok {
					rungs[rung] = true
				}
			}
		}
	}()

	flood, err := loadgen.Run(ctx, loadgen.Config{
		Target:      f.srv.URL,
		Prompts:     corpus,
		Requests:    1300,
		QPS:         440,
		Concurrency: 96,
		Seed:        4,
		Tenants:     2,
		TenantSkew:  10, // t0 offers ~400 QPS, t1 its solo ~40 QPS
	})
	close(watcherStop)
	<-watcherDone
	if err != nil {
		t.Fatal(err)
	}

	// Recovery: with the flood gone, light traffic must walk the gauge
	// back to full quality. The rung is latched with hysteresis, so a
	// few unhurried completions are what clears it.
	recoverStart := time.Now()
	recovered := false
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		_, _, _ = f.sys.AugmentContextLevel(ctx, "recovery probe", "")
		if rung, ok := f.pressureRung(); ok && rung == "" {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("ladder never stepped back to full quality; rungs seen during flood: %v", rungs)
	}

	sc := overloadScenario{
		Solo:        solo,
		Flood:       flood,
		RecoveredMs: float64(time.Since(recoverStart)) / float64(time.Millisecond),
	}
	for r := range rungs {
		if r != "" {
			sc.RungsSeen = append(sc.RungsSeen, r)
		}
	}
	return sc
}

// tenantRow finds one tenant's report row.
func tenantRow(t *testing.T, rep loadgen.Report, tenant string) loadgen.TenantReport {
	t.Helper()
	for _, row := range rep.Tenants {
		if row.Tenant == tenant {
			return row
		}
	}
	t.Fatalf("tenant %q missing from report rows: %+v", tenant, rep.Tenants)
	return loadgen.TenantReport{}
}

// TestOverloadE2EIsolationAndLadder is the overload chaos drill: a
// replica driven to ~2.75x saturation by a 10x-share flooding tenant must
// (1) keep the well-behaved tenant's shed rate and p99 inside its
// solo-baseline band — the fair-share isolation guarantee, (2) answer
// everything deliberately (200 or 503+Retry-After, never a 5xx error),
// and (3) step down the brownout ladder under pressure and recover to
// full quality after the flood.
func TestOverloadE2EIsolationAndLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("overload drill is seconds-scale")
	}
	sc := runOverloadScenario(t)

	// Zero PAS-side hard failures in either phase: every request was
	// answered 200 or deliberately shed 503.
	if sc.Solo.Errors != 0 {
		t.Fatalf("solo phase: %d errors (first: %s)", sc.Solo.Errors, sc.Solo.FirstError)
	}
	if sc.Flood.Errors != 0 {
		t.Fatalf("flood phase: %d errors (first: %s)", sc.Flood.Errors, sc.Flood.FirstError)
	}

	soloRow := tenantRow(t, sc.Solo, "t0") // the lone tenant's baseline
	wellBehaved := tenantRow(t, sc.Flood, "t1")
	flooder := tenantRow(t, sc.Flood, "t0")

	// The flooder carried the overload: it offered ~10x and got shed
	// hard, while the well-behaved tenant's shed fraction stayed within
	// its solo band (+15 points of CI slack on a ~0% baseline).
	if flooder.Requests <= 5*wellBehaved.Requests {
		t.Fatalf("skew did not materialize: flooder %d vs well-behaved %d requests",
			flooder.Requests, wellBehaved.Requests)
	}
	soloShedFrac := float64(soloRow.Shed) / float64(soloRow.Requests)
	bShedFrac := float64(wellBehaved.Shed) / float64(wellBehaved.Requests)
	if bShedFrac > soloShedFrac+0.15 {
		t.Fatalf("isolation broken: well-behaved shed %.1f%% under flood vs %.1f%% solo (rows: flood=%+v solo=%+v)",
			100*bShedFrac, 100*soloShedFrac, wellBehaved, soloRow)
	}
	// Fair share's bite shows up in queueing: the flooder's DRR bucket
	// backlogs (it offers ~2.5x its half-share) while the well-behaved
	// bucket drains every round, so B's median latency stays strictly
	// below the flooder's. (How the overload splits between 503s and
	// raw-rung 200s varies run to run, so no flooder-shed floor is
	// asserted.)
	if wellBehaved.LatencyP50Ms >= flooder.LatencyP50Ms {
		t.Fatalf("fair share did not prioritize the well-behaved tenant: p50 %.1fms >= flooder's %.1fms",
			wellBehaved.LatencyP50Ms, flooder.LatencyP50Ms)
	}

	// p99 band: the queue wait bounds added latency at 250ms; allow
	// that plus scheduler slack on top of the solo baseline.
	if limit := soloRow.LatencyP99Ms + 400; wellBehaved.LatencyP99Ms > limit {
		t.Fatalf("isolation broken: well-behaved p99 %.1fms under flood vs %.1fms solo (limit %.1fms)",
			wellBehaved.LatencyP99Ms, soloRow.LatencyP99Ms, limit)
	}

	// The ladder stepped down during the flood (some requests served
	// below full quality, and /v1/status advertised a rung) — and
	// runOverloadScenario already proved it stepped back up.
	if sc.Flood.Degraded == 0 {
		t.Fatalf("brownout never engaged: flood report %+v", sc.Flood)
	}
	if len(sc.RungsSeen) == 0 {
		t.Fatal("/v1/status never advertised a pressure rung during the flood")
	}

	// The solo phase ran the same stack below saturation: nothing shed,
	// nothing degraded — the overload machinery is free when idle.
	if soloShedFrac > 0.05 {
		t.Fatalf("solo baseline unexpectedly shed %.1f%%: %+v", 100*soloShedFrac, soloRow)
	}
}

// TestOverloadE2EBenchReport regenerates BENCH_overload.json — the
// committed evidence of the drill. Gated like the other BENCH fixtures:
// `PAS_BENCH_OUT=BENCH_overload.json go test -run
// '^TestOverloadE2EBenchReport$' .`
func TestOverloadE2EBenchReport(t *testing.T) {
	path := os.Getenv("PAS_BENCH_OUT")
	if path == "" {
		t.Skip("set PAS_BENCH_OUT=BENCH_overload.json to regenerate the overload drill report")
	}
	sc := runOverloadScenario(t)
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
