package serving

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCountersReconcile: two tenants produce a hit, a shared follower,
// a computed miss, a queue-full shed, a deadline shed (both answered
// fail-open) and a drain shed; then every pas_serving_* sample equals
// its /v1/stats value, each shed_* equals the sum over tenants[], and
// shed equals the sum of the three.
func TestCountersReconcile(t *testing.T) {
	release := make(chan struct{})
	fn := func(prompt, salt string) string {
		if prompt == "occupier" {
			<-release
		}
		return "pc:" + prompt
	}
	c := mustNew(t, fn, Config{MaxInFlight: 1, QueueDepth: 1, QueueWait: 5 * time.Second, Degrade: true})
	a := WithTenant(context.Background(), "a")
	b := WithTenant(context.Background(), "b")
	do := func(ctx context.Context, prompt string) (bool, error) {
		_, degraded, err := c.DoLevel(ctx, prompt, "", "m")
		return degraded, err
	}

	for _, p := range []string{"warm", "warm"} { // a computed miss, then a hit
		if degraded, err := do(a, p); degraded || err != nil {
			t.Fatalf("%s: degraded %v, err %v", p, degraded, err)
		}
	}
	leader := make(chan error, 1)
	go func() { _, err := do(a, "occupier"); leader <- err }()
	waitFor(t, func() bool { return c.Stats().InFlight == 1 })
	follower := make(chan error, 1)
	go func() { _, err := do(b, "occupier"); follower <- err }()
	waitFor(t, func() bool { return c.flight.waiters(Key("occupier", "", "m")) == 1 })

	late, cancel := context.WithTimeout(b, 20*time.Millisecond)
	defer cancel()
	if degraded, err := do(late, "late"); !degraded || err != nil {
		t.Fatalf("deadline shed: degraded %v, err %v; want a fail-open answer", degraded, err)
	}
	parked := make(chan error, 1)
	go func() { _, err := do(a, "parked"); parked <- err }()
	waitFor(t, func() bool { return c.Stats().QueueDepth == 1 })
	if degraded, err := do(b, "full"); !degraded || err != nil {
		t.Fatalf("queue-full shed: degraded %v, err %v; want a fail-open answer", degraded, err)
	}

	close(release)
	for _, ch := range []chan error{leader, follower, parked} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	if _, err := do(b, "drained"); !errors.Is(err, ErrDraining) {
		t.Fatalf("drain shed: err %v, want ErrDraining", err)
	}

	rec := httptest.NewRecorder()
	c.StatsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var s Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.ShedQueueFull != 1 || s.ShedDeadline != 1 || s.ShedDraining != 1 || s.Degraded != 2 ||
		s.DedupHits != 1 || s.Cache.Hits != 1 || s.Completed != 5 || len(s.Tenants) != 2 {
		t.Fatalf("the scenario did not happen as written: %+v", s)
	}

	var sum TenantStats
	for _, ts := range s.Tenants {
		sum.ShedQueueFull += ts.ShedQueueFull
		sum.ShedDeadline += ts.ShedDeadline
		sum.ShedOther += ts.ShedOther
	}
	if sum.ShedQueueFull != s.ShedQueueFull || sum.ShedDeadline != s.ShedDeadline || sum.ShedOther != s.ShedDraining {
		t.Errorf("shed_* (%d, %d, %d) != the sums over tenants[] (%d, %d, %d)",
			s.ShedQueueFull, s.ShedDeadline, s.ShedDraining, sum.ShedQueueFull, sum.ShedDeadline, sum.ShedOther)
	}
	if s.Shed != s.ShedQueueFull+s.ShedDeadline+s.ShedDraining {
		t.Errorf("shed %d != %d + %d + %d", s.Shed, s.ShedQueueFull, s.ShedDeadline, s.ShedDraining)
	}

	draining := 0.0
	if s.Draining {
		draining = 1
	}
	want := map[string]float64{
		"pas_serving_in_flight":                      float64(s.InFlight),
		"pas_serving_queue_depth":                    float64(s.QueueDepth),
		"pas_serving_requests_total":                 float64(s.Requests),
		"pas_serving_completed_total":                float64(s.Completed),
		"pas_serving_request_duration_seconds_count": float64(s.Completed),
		"pas_serving_shed_total{reason=queue_full}":  float64(s.ShedQueueFull),
		"pas_serving_shed_total{reason=deadline}":    float64(s.ShedDeadline),
		"pas_serving_shed_total{reason=draining}":    float64(s.ShedDraining),
		"pas_serving_draining":                       draining,
		"pas_serving_degraded_total":                 float64(s.Degraded),
		"pas_serving_limit":                          float64(s.Limit),
		"pas_serving_retry_after_hint_seconds":       float64(s.RetryAfterHintS),
		"pas_serving_dedup_hits_total":               float64(s.DedupHits),
		"pas_serving_cache_hits_total":               float64(s.Cache.Hits),
		"pas_serving_cache_misses_total":             float64(s.Cache.Misses),
		"pas_serving_cache_evictions_total":          float64(s.Cache.Evictions),
		"pas_serving_cache_expiries_total":           float64(s.Cache.Expiries),
		"pas_serving_cache_entries":                  float64(s.Cache.Entries),
	}
	for _, ts := range s.Tenants {
		l := "{tenant=" + ts.Tenant + "}"
		want["pas_serving_tenant_requests_total"+l] = float64(ts.Requests)
		want["pas_serving_tenant_admitted_total"+l] = float64(ts.Admitted)
		want["pas_serving_tenant_shed_total"+l] = float64(ts.Shed)
		want["pas_serving_tenant_in_flight"+l] = float64(ts.InFlight)
		want["pas_serving_tenant_waiting"+l] = float64(ts.Waiting)
	}

	// A histogram's buckets and sums are latencies, not /v1/stats
	// values; its _count series summed over outcomes is completed.
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	got := map[string]float64{}
	for _, f := range reg.Gather() {
		for _, sm := range f.Samples {
			name := f.Name + sm.Suffix
			if sm.Suffix == "_count" {
				got[name] += sm.Value
				continue
			} else if sm.Suffix != "" {
				continue
			}
			var labels []string
			for _, l := range sm.Labels {
				labels = append(labels, l.Key+"="+l.Value)
			}
			if len(labels) > 0 {
				sort.Strings(labels)
				name += "{" + strings.Join(labels, ",") + "}"
			}
			got[name] = sm.Value
		}
	}
	for name, v := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("/metricsz %s = %v has no /v1/stats value here", name, v)
		} else if v != w {
			t.Errorf("/metricsz %s = %v, /v1/stats says %v", name, v, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("/metricsz has no %s", name)
		}
	}
}
