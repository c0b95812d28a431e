package pas

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpmw"
	"repro/internal/loadgen"
)

// newOverloadFixture serves one passerve-equivalent replica tuned for
// the overload drill: caching off so every request costs a computation,
// a padded compute (the -compute-delay knob) so a modest request rate
// saturates it, and a small concurrency cap — nothing opted into: the
// cap and the tenant fair-share queue are the one admission path.
// Requests reach the queue via the same httpmw.Tenant middleware
// passerve mounts.
func newOverloadFixture(t *testing.T) *httptest.Server {
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
	return srv
}

// overloadScenario holds both phases of the drill — the shape committed
// as BENCH_overload.json.
type overloadScenario struct {
	// Solo is the well-behaved tenant alone at its normal rate; Flood
	// adds a 10x-share noisy neighbor offering ~2.75x the replica's
	// capacity in requests. Caching is off, but single-flight still
	// collapses repeats of a prompt that is queued or computing, so how
	// many computations that is depends on the corpus. The generator's
	// zipf draw over 256 prompts puts 171 distinct ones into the flood's
	// 1,300 requests: enough first-time work to overrun the queue's wait
	// budget and shed on every run. Over 128 prompts or fewer (this drill
	// drew from 64 before) nearly every arrival attaches to a computation
	// already waiting and the queue absorbs the rest.
	Solo  loadgen.Report `json:"solo"`
	Flood loadgen.Report `json:"flood"`
	// bareSheds counts 503s, in either phase, without a Retry-After.
	bareSheds int64
}

// retryAfterCheck counts the 503s that reach the load generator without
// a Retry-After: every refusal the core makes is priced.
type retryAfterCheck struct {
	next *http.Transport
	bare *int64
}

func (c retryAfterCheck) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
		atomic.AddInt64(c.bare, 1)
	}
	return resp, err
}

// runOverloadScenario drives the two-phase drill against a fresh
// fixture. Capacity is ~160 QPS (ceiling 4 / 25ms compute): the solo
// phase offers 40 QPS from one tenant; the flood phase offers ~440 QPS
// total with tenant t0 carrying 10x t1's share — so t1 still offers its
// solo ~40 QPS while t0 floods. Both phases draw from 256 distinct
// prompts (see overloadScenario.Flood for why that many).
func runOverloadScenario(t *testing.T) overloadScenario {
	t.Helper()
	srv := newOverloadFixture(t)
	ctx := context.Background()
	corpus := benchPrompts(256)
	var sc overloadScenario
	// loadgen's own pooled default, wrapped.
	pool := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}
	t.Cleanup(pool.CloseIdleConnections)
	hc := &http.Client{Transport: retryAfterCheck{pool, &sc.bareSheds}}

	solo, err := loadgen.Run(ctx, loadgen.Config{
		Target:      srv.URL,
		Prompts:     corpus,
		Requests:    120,
		QPS:         40,
		Concurrency: 16,
		Seed:        3,
		Tenants:     1, // every request labeled t0 — the solo baseline
		HTTPClient:  hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	flood, err := loadgen.Run(ctx, loadgen.Config{
		Target:      srv.URL,
		Prompts:     corpus,
		Requests:    1300,
		QPS:         440,
		Concurrency: 96,
		Seed:        4,
		Tenants:     2,
		TenantSkew:  10, // t0 offers ~400 QPS, t1 its solo ~40 QPS
		HTTPClient:  hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.Solo, sc.Flood = solo, flood
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

// TestOverloadE2EIsolation is the overload chaos drill: a replica
// driven to ~2.75x saturation by a 10x-share flooding tenant must
// (1) keep the well-behaved tenant's answers at full quality and its p99
// inside its solo-baseline band — the fair-share isolation guarantee —
// and (2) answer everything deliberately: 200 at full quality or 503 with
// Retry-After, never a 5xx error and, fail-closed, never a flagged 200.
func TestOverloadE2EIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("overload drill is seconds-scale")
	}
	sc := runOverloadScenario(t)

	// Zero PAS-side hard failures in either phase: every request was
	// answered 200 or deliberately shed 503, and every 503 was priced.
	if sc.Solo.Errors != 0 {
		t.Fatalf("solo phase: %d errors (first: %s)", sc.Solo.Errors, sc.Solo.FirstError)
	}
	if sc.Flood.Errors != 0 {
		t.Fatalf("flood phase: %d errors (first: %s)", sc.Flood.Errors, sc.Flood.FirstError)
	}
	if sc.bareSheds != 0 {
		t.Fatalf("%d 503s without a Retry-After", sc.bareSheds)
	}
	// Fail-closed has two answers, full or 503: nothing is flagged.
	if sc.Solo.Degraded != 0 || sc.Flood.Degraded != 0 {
		t.Fatalf("a fail-closed replica answered %d + %d flagged 200s", sc.Solo.Degraded, sc.Flood.Degraded)
	}
	// The flood saturated the replica: it shed.
	if sc.Flood.Shed == 0 {
		t.Fatalf("the flood never saturated the replica: %+v", sc.Flood)
	}

	soloRow := tenantRow(t, sc.Solo, "t0") // the lone tenant's baseline
	wellBehaved := tenantRow(t, sc.Flood, "t1")
	flooder := tenantRow(t, sc.Flood, "t0")

	// The flooder carried the overload: it offered ~10x, while the
	// well-behaved tenant's share of answers below full quality (shed or
	// flagged) stayed within 5 points of its solo baseline.
	if flooder.Requests <= 5*wellBehaved.Requests {
		t.Fatalf("skew did not materialize: flooder %d vs well-behaved %d requests",
			flooder.Requests, wellBehaved.Requests)
	}
	nonFull := func(row loadgen.TenantReport) float64 {
		return float64(row.Shed+row.Degraded) / float64(row.Requests)
	}
	t.Logf("well-behaved t1: %d shed, %d flagged of %d, p99 %.0fms; flood: %d shed of %d",
		wellBehaved.Shed, wellBehaved.Degraded, wellBehaved.Requests, wellBehaved.LatencyP99Ms, sc.Flood.Shed, sc.Flood.Requests)
	if b, solo := nonFull(wellBehaved), nonFull(soloRow); b > solo+0.05 {
		t.Fatalf("isolation broken: well-behaved non-full %.1f%% under flood vs %.1f%% solo (rows: flood=%+v solo=%+v)",
			100*b, 100*solo, wellBehaved, soloRow)
	}
	// Fair share's bite shows up in queueing: the flooder's DRR bucket
	// backlogs (it offers ~2.5x its half-share) while the well-behaved
	// bucket drains every round, so B's median latency stays strictly
	// below the flooder's.
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

	// The solo phase ran the same stack below saturation: nothing shed —
	// the overload machinery is free when idle.
	if solo := nonFull(soloRow); solo > 0.05 {
		t.Fatalf("solo baseline unexpectedly shed %.1f%%: %+v", 100*solo, soloRow)
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
