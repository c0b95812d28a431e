package pas

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpmw"
	"repro/internal/obs"
	"repro/internal/serving"
)

// servingSystem builds a fresh System sharing the cached test model,
// with the serving core enabled; tests that mutate serving state must
// not share the System other tests use.
func servingSystem(t *testing.T, cfg ServingConfig) *System {
	t.Helper()
	sys := newSystem(testSystem(t).System.model)
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
	sys := newSystem(testSystem(t).System.model)
	rec := httptest.NewRecorder()
	sys.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("stats without core: status = %d, want 404", rec.Code)
	}
}

// TestAbandonedRequestIs499NotAShed: a request whose own client has
// left comes back from the augmenter as that context's error, on
// POST /v1/augment and through the proxy alike — and through the proxy
// after augmenting, while the upstream is read. Nobody was refused and
// nobody is listening, so nothing is written, and the chain's shared
// record says 499: not the 503 with "shed":true an operator would read
// as overload, not the 502 of an unreachable upstream, not an error on
// /metricsz. (A follower of a cancelled single-flight leader has a live
// context of its own and gets its 200:
// TestAugmentHandlerFollowerOutlivesLeadersClient.)
func TestAbandonedRequestIs499NotAShed(t *testing.T) {
	sys := servingSystem(t, ServingConfig{})
	upstream, bodies := captureUpstream(t)
	proxy, err := NewProxy(sys, upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	// An upstream that takes the chat and answers nothing until its
	// caller leaves.
	reached := make(chan struct{}, 1)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read to the end: only then does the server watch for the caller
		// leaving.
		_, _ = io.Copy(io.Discard, r.Body)
		reached <- struct{}{}
		<-r.Context().Done()
	}))
	defer stalled.Close()
	stalledProxy, err := NewProxy(sys, stalled.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, body string
		h                http.Handler
		// hangUpAt, when set, is when the client leaves; otherwise it has
		// left before the request is served.
		hangUpAt <-chan struct{}
	}{
		{"augment handler", "/v1/augment", `{"prompt":"Explain how tides form."}`, sys.Handler(), nil},
		{"proxy", "/v1/chat/completions", tidesChat, proxy, nil},
		{"proxy while the upstream is read", "/v1/chat/completions", tidesChat, stalledProxy, reached},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged bytes.Buffer
			reg := obs.NewRegistry()
			metrics := httpmw.NewMetrics()
			metrics.Register(reg)
			h := httpmw.Chain(tc.h, httpmw.Logging(log.New(&logged, "", 0)), httpmw.Tenant(), metrics.Middleware())

			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			if tc.hangUpAt == nil {
				hangUp()
			} else {
				go func() {
					<-tc.hangUpAt
					hangUp()
				}()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body)).WithContext(ctx))

			if rec.Body.Len() != 0 || rec.Header().Get("Retry-After") != "" || len(*bodies) != 0 {
				t.Errorf("wrote %q (Retry-After %q), forwarded %d chats, for a client that had gone", rec.Body, rec.Header().Get("Retry-After"), len(*bodies))
			}
			var line struct {
				Status, Bytes int
				Shed          bool
			}
			if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
				t.Fatalf("access line %q: %v", logged.Bytes(), err)
			}
			if line.Status != obs.StatusClientClosedRequest || line.Shed || line.Bytes != 0 {
				t.Errorf("access line %s; want status 499, no shed flag, no bytes", bytes.TrimSpace(logged.Bytes()))
			}
			for _, f := range reg.Gather() {
				for _, smp := range f.Samples {
					if f.Name == "pas_http_errors_total" && smp.Value != 0 {
						t.Errorf("pas_http_errors_total%v = %v: an error counted for a request nobody was refused", smp.Labels, smp.Value)
					}
				}
			}
		})
	}
	if st := sys.core.Stats(); st.Shed != 0 || st.Degraded != 0 {
		t.Errorf("core counted a shed or a degraded answer for clients that left: %+v", st)
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

// TestContextVariantsWithoutCore: AugmentContextDegraded on a plain
// system is the direct Augment at full quality and never fails.
func TestContextVariantsWithoutCore(t *testing.T) {
	sys := testSystem(t).System
	a, degraded, err := sys.AugmentContextDegraded(context.Background(), "Explain how tides form.", "s")
	if err != nil {
		t.Fatal(err)
	}
	if want := sys.Augment("Explain how tides form.", "s"); a != want || degraded {
		t.Fatalf("AugmentContextDegraded = (%q, %v), want (%q, false)", a, degraded, want)
	}
}
