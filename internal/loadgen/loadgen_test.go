package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// benchTarget fakes a replica: /v1/augment records served prompts and
// tracks hit/miss counters that /v1/stats exposes in the serving shape.
type benchTarget struct {
	mu     sync.Mutex
	seen   map[string]int
	hits   int64
	misses int64
	srv    *httptest.Server
}

func newBenchTarget(t *testing.T) *benchTarget {
	t.Helper()
	b := &benchTarget{seen: make(map[string]int)}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/augment", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Prompt string `json:"prompt"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		b.seen[req.Prompt]++
		if b.seen[req.Prompt] > 1 {
			b.hits++
		} else {
			b.misses++
		}
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"augmented": req.Prompt + " [aug]"})
	})
	mux.HandleFunc("/v1/chat/completions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Messages []struct {
				Content string `json:"content"`
			} `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		for _, m := range req.Messages {
			b.seen[m.Content]++
		}
		b.mu.Unlock()
		w.Header().Set("X-PAS-Degraded", "1")
		_ = json.NewEncoder(w).Encode(map[string]any{"choices": []any{}})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		hits, misses := b.hits, b.misses
		b.mu.Unlock()
		_ = json.NewEncoder(w).Encode(map[string]any{
			"cache": map[string]int64{"hits": hits, "misses": misses},
		})
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func prompts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("prompt %d", i)
	}
	return out
}

// TestRunAugment: a count-bounded zipfian run hits the augment endpoint
// the requested number of times, measures latency, and reads the
// replica's cache delta through /v1/stats.
func TestRunAugment(t *testing.T) {
	b := newBenchTarget(t)
	rep, err := Run(context.Background(), Config{
		Target:      b.srv.URL,
		Prompts:     prompts(50),
		Requests:    120,
		Concurrency: 4,
		Seed:        7,
		Replicas:    []string{b.srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 120 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d (first: %s)", rep.Requests, rep.Errors, rep.FirstError)
	}
	if rep.DistinctKeys <= 0 || rep.DistinctKeys >= 50 {
		t.Fatalf("zipf distinct keys = %d, want a skewed subset of 50", rep.DistinctKeys)
	}
	if rep.LatencyP50Ms <= 0 || rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Fatalf("bad quantiles: p50=%v p99=%v", rep.LatencyP50Ms, rep.LatencyP99Ms)
	}
	if rep.AchievedQPS <= 0 {
		t.Fatal("achieved QPS not computed")
	}
	if len(rep.Replicas) != 1 || rep.Replicas[0].Error != "" {
		t.Fatalf("replica scrape: %+v", rep.Replicas)
	}
	// 120 requests over DistinctKeys prompts: misses = distinct, the
	// rest hit.
	if got := rep.Replicas[0].Misses; got != int64(rep.DistinctKeys) {
		t.Fatalf("misses = %d, want %d (one per distinct key)", got, rep.DistinctKeys)
	}
	if rep.ClusterHits+rep.ClusterMisses != 120 {
		t.Fatalf("cluster lookups = %d, want 120", rep.ClusterHits+rep.ClusterMisses)
	}
	if rep.ClusterHitRatio <= 0 {
		t.Fatal("cluster hit ratio missing")
	}
	// The report must marshal — it is committed as BENCH_serving.json.
	if _, err := json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != reportSchemaVersion {
		t.Fatalf("schema_version = %d, want %d", rep.SchemaVersion, reportSchemaVersion)
	}
	if rep.GeneratedUnix <= 0 {
		t.Fatalf("generated_unix = %d, want a positive wall-clock stamp", rep.GeneratedUnix)
	}
}

// TestRunDeterministicKeys: equal seeds replay the identical key
// sequence; different seeds do not (with overwhelming probability).
func TestRunDeterministicKeys(t *testing.T) {
	run := func(seed int64) map[string]int {
		b := newBenchTarget(t)
		if _, err := Run(context.Background(), Config{
			Target:      b.srv.URL,
			Prompts:     prompts(200),
			Requests:    80,
			Concurrency: 3,
			Seed:        seed,
		}); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		out := make(map[string]int, len(b.seen))
		for k, v := range b.seen {
			out[k] = v
		}
		return out
	}
	a, b2, c := run(42), run(42), run(43)
	if fmt.Sprint(a) != fmt.Sprint(b2) {
		t.Fatalf("same seed produced different key multisets:\n%v\n%v", a, b2)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical key multisets")
	}
}

// TestRunChatAndQPS: chat mode posts chat completions and a QPS cap
// paces the run; the degraded header is counted.
func TestRunChatAndQPS(t *testing.T) {
	b := newBenchTarget(t)
	start := time.Now()
	rep, err := Run(context.Background(), Config{
		Target:      b.srv.URL,
		Mode:        ModeChat,
		Prompts:     prompts(10),
		Requests:    20,
		QPS:         100,
		Concurrency: 4,
		Skew:        SkewUniform,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 20 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d (first: %s)", rep.Requests, rep.Errors, rep.FirstError)
	}
	// 20 requests at 100 QPS: the last dispatch waits ~190ms.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("QPS pacing did not throttle: run took %v", elapsed)
	}
	if rep.Degraded != 20 {
		t.Fatalf("degraded = %d, want 20 (header on every response)", rep.Degraded)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.seen) == 0 {
		t.Fatal("chat handler never saw a message")
	}
}

// TestConfigValidation: broken configs fail before any traffic.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},                   // no target
		{Target: "http://x"}, // no prompts
		{Target: "http://x", Prompts: []string{"p"}, Mode: "nope"},
		{Target: "http://x", Prompts: []string{"p"}, Skew: "nope"},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("case %d: Run succeeded, want config error", i)
		}
	}
}
