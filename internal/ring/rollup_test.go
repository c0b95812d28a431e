package ring

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsRollup: the cluster /metricsz merges live members'
// expositions under instance labels, marks the dead member's scrape as
// failed, and folds in the proxy's own registry.
func TestMetricsRollup(t *testing.T) {
	mkMember := func(hits float64) *httptest.Server {
		reg := obs.NewRegistry()
		reg.RegisterCollector(func(e *obs.Emitter) { e.Counter("pas_serving_cache_hits_total", "Cache hits.", hits) })
		mux := http.NewServeMux()
		mux.Handle("/metricsz", reg.Handler())
		mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"status":"ok"}`))
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	m1, m2 := mkMember(7), mkMember(3)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	c, err := NewClient(Config{Replicas: []string{m1.URL, m2.URL, dead.URL}})
	if err != nil {
		t.Fatal(err)
	}
	local := obs.NewRegistry()
	local.RegisterCollector(func(e *obs.Emitter) { e.Counter("pas_ring_requests_total", "Routing requests.", 10) })

	rec := httptest.NewRecorder()
	c.MetricsRollup(local, 0).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz/cluster", nil))
	body := rec.Body.String()

	for _, want := range []string{
		`pas_serving_cache_hits_total{instance="` + m1.URL + `"} 7`,
		`pas_serving_cache_hits_total{instance="` + m2.URL + `"} 3`,
		`pas_cluster_scrape_ok{instance="` + dead.URL + `"} 0`,
		`pas_cluster_scrape_ok{instance="` + m1.URL + `"} 1`,
		`pas_ring_requests_total{instance="proxy"} 10`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("rollup missing %q:\n%s", want, body)
		}
	}
	if got := rec.Header().Get("Content-Type"); got != obs.TextContentType {
		t.Fatalf("content type %q", got)
	}
	// The merged output must itself be a valid exposition.
	if _, err := obs.ParseExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("rollup output does not parse: %v", err)
	}
}

// TestMetricsRollupMidDrain: a draining member is off the routing ring
// but still very much observable — its /metricsz keeps being scraped
// (scrape_ok 1, series present) right up until the process dies, which
// is exactly the window an operator watches during a rolling restart.
func TestMetricsRollupMidDrain(t *testing.T) {
	reg := obs.NewRegistry()
	reg.RegisterCollector(func(e *obs.Emitter) { e.Counter("pas_serving_shed_total", "Sheds.", 5, "reason", "draining") })
	mux := http.NewServeMux()
	mux.Handle("/metricsz", reg.Handler())
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"draining"}`))
	})
	draining := httptest.NewServer(mux)
	t.Cleanup(draining.Close)

	healthyReg := obs.NewRegistry()
	healthyReg.RegisterCollector(func(e *obs.Emitter) { e.Counter("pas_serving_cache_hits_total", "Cache hits.", 4) })
	hmux := http.NewServeMux()
	hmux.Handle("/metricsz", healthyReg.Handler())
	hmux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	})
	healthy := httptest.NewServer(hmux)
	t.Cleanup(healthy.Close)

	c, err := NewClient(Config{Replicas: []string{healthy.URL, draining.URL}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the prober observe the drain: the member leaves the ring but
	// stays in the membership table that drives the rollup scrape.
	c.Membership().ProbeAll(context.Background())
	if c.Membership().live() != 1 {
		t.Fatalf("Live() = %d after drain probe, want 1", c.Membership().live())
	}

	rec := httptest.NewRecorder()
	c.MetricsRollup(obs.NewRegistry(), 0).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz/cluster", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`pas_cluster_scrape_ok{instance="` + draining.URL + `"} 1`,
		`pas_cluster_scrape_ok{instance="` + healthy.URL + `"} 1`,
		`reason="draining"`,
		`pas_serving_cache_hits_total{instance="` + healthy.URL + `"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("mid-drain rollup missing %q:\n%s", want, body)
		}
	}
	if _, err := obs.ParseExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("mid-drain rollup does not parse: %v", err)
	}
}
