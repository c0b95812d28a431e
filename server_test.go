package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serving"
)

// servingSystem builds a fresh System sharing the cached test model,
// with the serving core enabled; tests that mutate serving state must
// not share the System other tests use.
func servingSystem(t *testing.T, cfg ServingConfig) *System {
	t.Helper()
	sys := NewSystem(testSystem(t).System.model)
	if err := sys.EnableServing(cfg); err != nil {
		t.Fatal(err)
	}
	return sys
}

func postAugment(t *testing.T, url, prompt, salt string) AugmentResponse {
	t.Helper()
	body, _ := json.Marshal(AugmentRequest{Prompt: prompt, Salt: salt})
	resp, err := http.Post(url+"/v1/augment", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("augment status = %d", resp.StatusCode)
	}
	var out AugmentResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServedAugmentMatchesDirectAndCaches: the served hot path must be
// semantically identical to calling Complement directly, and repeated
// prompts must be served from cache.
func TestServedAugmentMatchesDirectAndCaches(t *testing.T) {
	sys := servingSystem(t, ServingConfig{})
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()

	first := postAugment(t, srv.URL, "Explain how tides form.", "s1")
	second := postAugment(t, srv.URL, "Explain how tides form.", "s1")
	if first != second {
		t.Fatalf("cached response diverged: %+v vs %+v", first, second)
	}
	if want := sys.Complement("Explain how tides form.", "s1"); first.Complement != want {
		t.Fatalf("served complement %q != direct %q", first.Complement, want)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var stats serving.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 2 || stats.Completed != 2 {
		t.Fatalf("stats = %+v, want 2 requests completed", stats)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.CacheHitRatio != 0.5 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", stats)
	}
}

// TestCompletionsReconcileOnTheDurationHistogram: a completed request
// is recorded once, in pas_serving_request_duration_seconds. After c
// computations, h cache hits and s single-flight followers its
// per-outcome _counts are exactly c, h and s, and they are what
// /v1/stats reports as completed.
func TestCompletionsReconcileOnTheDurationHistogram(t *testing.T) {
	// The padded computation is the window the followers attach in.
	sys := servingSystem(t, ServingConfig{ComputeDelay: 500 * time.Millisecond})
	reg := obs.NewRegistry()
	sys.RegisterMetrics(reg)
	srv := httptest.NewServer(sys.Handler())
	defer srv.Close()
	const computed, hits, shared = 2, 3, 4

	for i := 0; i < 1+hits; i++ {
		postAugment(t, srv.URL, "Explain how tides form.", "r")
	}
	var wg sync.WaitGroup
	follow := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/augment", "application/json",
				strings.NewReader(`{"prompt":"Explain how rainbows form.","salt":"r"}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("follower status = %d", resp.StatusCode)
			}
		}()
	}
	follow() // the leader
	for deadline := time.Now().Add(5 * time.Second); sys.core.Stats().InFlight == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never started computing")
		}
	}
	for i := 0; i < shared; i++ {
		follow()
	}
	wg.Wait()

	got := map[string]float64{}
	var total float64
	for _, f := range reg.Gather() {
		if f.Name != "pas_serving_request_duration_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Suffix == "_count" {
				got[s.Labels[0].Value] += s.Value // outcome is the first label
				total += s.Value
			}
		}
	}
	if got["computed"] != computed || got["hit"] != hits || got["shared"] != shared {
		t.Fatalf("histogram counts %v, want computed %d, hit %d, shared %d", got, computed, hits, shared)
	}
	if st := sys.core.Stats(); float64(st.Completed) != total || st.Completed != computed+hits+shared {
		t.Fatalf("Stats().Completed = %d, histogram total %v, want both %d", st.Completed, total, computed+hits+shared)
	}
}

// TestStatsWithoutServingCore: a system without EnableServing reports
// the core as absent rather than all-zero counters.
func TestStatsWithoutServingCore(t *testing.T) {
	sys := NewSystem(testSystem(t).System.model)
	rec := httptest.NewRecorder()
	sys.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("stats without core: status = %d, want 404", rec.Code)
	}
}

// TestAugmentShedsDisconnectedClient: a request whose client context
// already ended is answered 503 without computing.
func TestAugmentShedsDisconnectedClient(t *testing.T) {
	sys := servingSystem(t, ServingConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, _ := json.Marshal(AugmentRequest{Prompt: "p"})
	req := httptest.NewRequest("POST", "/v1/augment", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	sys.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
}

// TestWriteOverloadedSetsRetryAfter: shed errors carry Retry-After;
// client-side errors do not invite a retry.
func TestWriteOverloadedSetsRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	sys := new(System) // no core: the hint falls back to the constant 1
	sys.writeOverloaded(rec, serving.ErrQueueFull)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("queue-full: code %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	sys.writeOverloaded(rec, context.Canceled)
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("client cancellation should not invite a retry")
	}
}

// TestContextVariantsWithoutCore: AugmentContextLevel on a plain system
// is the direct Augment at full quality and never fails.
func TestContextVariantsWithoutCore(t *testing.T) {
	sys := testSystem(t).System
	a, level, err := sys.AugmentContextLevel(context.Background(), "Explain how tides form.", "s")
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.Augment("Explain how tides form.", "s"); a != want || level != "" {
		t.Fatalf("AugmentContextLevel = (%q, %q), want (%q, full)", a, level, want)
	}
}
