package httpmw

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"repro/internal/obs"
)

// TestExemplarsResolveToStoredTraces is the acceptance path for
// trace-linked exemplars: drive requests through the daemons' real
// middleware chain (RequestID → Trace → Metrics), scrape
// /metricsz?exemplars=1, and check every exemplar trace id is present
// in /debug/traces — a slow histogram bucket must name a span an
// operator can actually pull up.
func TestExemplarsResolveToStoredTraces(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TraceConfig{SampleEvery: 1, IDSeed: 7})
	metrics := NewMetrics()
	metrics.Register(reg)

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if _, err := io.WriteString(w, "ok"); err != nil {
			t.Errorf("writing response: %v", err)
		}
	})
	app := httptest.NewServer(Chain(inner,
		Recover(nil), RequestID(), Trace(tracer, "test"), metrics.Middleware()))
	defer app.Close()
	dbg := httptest.NewServer(obs.DebugMux(reg, tracer))
	defer dbg.Close()

	for i := 0; i < 5; i++ {
		resp, err := http.Get(app.URL + "/v1/augment")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("request %d read: %v", i, err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(dbg.URL + "/metricsz?exemplars=1")
	if err != nil {
		t.Fatalf("scraping metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.OpenMetricsContentType {
		t.Errorf("content type = %q, want %q", got, obs.OpenMetricsContentType)
	}

	exemplarRE := regexp.MustCompile(`# \{trace_id="([0-9a-f]{32})"\}`)
	var ids []string
	for _, m := range exemplarRE.FindAllStringSubmatch(string(body), -1) {
		ids = append(ids, m[1])
	}
	if len(ids) == 0 {
		t.Fatalf("no exemplars in scrape:\n%s", body)
	}

	resp, err = http.Get(dbg.URL + "/debug/traces")
	if err != nil {
		t.Fatalf("fetching traces: %v", err)
	}
	var snap obs.TracesSnapshot
	decodeErr := json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if decodeErr != nil {
		t.Fatalf("decoding traces: %v", decodeErr)
	}
	stored := make(map[string]bool)
	for _, tr := range snap.Recent {
		stored[tr.TraceID] = true
	}
	for _, tr := range snap.Slowest {
		stored[tr.TraceID] = true
	}
	for _, id := range ids {
		if !stored[id] {
			t.Errorf("exemplar trace id %s not present in /debug/traces (have %d traces)", id, len(stored))
		}
	}
}

// TestMetricsHistogramWithoutTrace covers the chain without a tracer:
// the histogram still observes, just without exemplars, and the 0.0.4
// scrape stays clean.
func TestMetricsHistogramWithoutTrace(t *testing.T) {
	reg := obs.NewRegistry()
	metrics := NewMetrics()
	metrics.Register(reg)

	srv := httptest.NewServer(Chain(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		metrics.Middleware()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	out := rr.Body.String()
	countRE := regexp.MustCompile(`pas_http_request_duration_seconds_count\{path="/x"\} 1`)
	if !countRE.MatchString(out) {
		t.Errorf("histogram count missing from scrape:\n%s", out)
	}
	if regexp.MustCompile(`trace_id`).MatchString(out) {
		t.Errorf("text scrape leaked exemplars:\n%s", out)
	}
}
